//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` for the
//! shapes this workspace actually uses — non-generic structs (named,
//! tuple, unit) and enums (unit, tuple, and struct variants) — using only
//! the compiler-provided `proc_macro` API. Named-struct fields honour
//! `#[serde(default)]` and `#[serde(default = "path")]`: a missing key
//! falls back to `Default::default()` or the named constructor instead of
//! erroring, matching real serde's behaviour. A named struct marked
//! `#[serde(deny_unknown_fields)]` rejects a key it has no field for,
//! naming the key; unmarked structs ignore such keys. The generated code targets
//! the value-tree model of the sibling `serde` shim and follows serde's
//! standard data model, so JSON produced by the real serde_json (e.g.
//! `scenarios/paper.json`) parses unchanged.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// How a missing field is filled in during deserialization.
enum FieldDefault {
    /// `#[serde(default)]` — `Default::default()`.
    Trait,
    /// `#[serde(default = "path")]` — call `path()`.
    Path(String),
}

/// One parsed named field and its `#[serde(default)]` marker, if any.
struct Field {
    name: String,
    default: Option<FieldDefault>,
}

enum Shape {
    /// `struct S { a: T, b: U }`
    NamedStruct(Vec<Field>),
    /// `struct S(T, U);` — arity recorded.
    TupleStruct(usize),
    /// `struct S;`
    UnitStruct,
    /// `enum E { ... }`
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Item {
    name: String,
    shape: Shape,
    /// `#[serde(deny_unknown_fields)]` on the type.
    deny_unknown_fields: bool,
}

/// Derives the shim `serde::Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_serialize(&item).parse().expect("generated impl parses"),
        Err(msg) => compile_error(&msg),
    }
}

/// Derives the shim `serde::Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_deserialize(&item)
            .parse()
            .expect("generated impl parses"),
        Err(msg) => compile_error(&msg),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});")
        .parse()
        .expect("literal")
}

// ---------------------------------------------------------------- parsing

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    let deny_unknown_fields = skip_attributes_and_visibility(&tokens, &mut i)?;

    let keyword = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, got {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, got {other:?}")),
    };
    i += 1;

    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde shim derive does not support generic type `{name}`"
        ));
    }

    let shape = match keyword.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::NamedStruct(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::UnitStruct,
            other => return Err(format!("unsupported struct body: {other:?}")),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream())?)
            }
            other => return Err(format!("expected enum body, got {other:?}")),
        },
        other => return Err(format!("expected `struct` or `enum`, got `{other}`")),
    };
    if deny_unknown_fields && !matches!(shape, Shape::NamedStruct(_)) {
        return Err(format!(
            "serde(deny_unknown_fields) needs a struct with named fields, not `{name}`"
        ));
    }
    Ok(Item {
        name,
        shape,
        deny_unknown_fields,
    })
}

/// Advances `i` past any `#[...]` attributes and `pub` / `pub(...)`
/// visibility qualifiers; returns whether one of the attributes was
/// `#[serde(deny_unknown_fields)]`.
fn skip_attributes_and_visibility(tokens: &[TokenTree], i: &mut usize) -> Result<bool, String> {
    let mut deny_unknown_fields = false;
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1; // `#`
                match tokens.get(*i) {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                        let attr = g.stream().to_string().replace(' ', "");
                        deny_unknown_fields |= attr == "serde(deny_unknown_fields)";
                        *i += 1;
                    }
                    other => return Err(format!("malformed attribute: {other:?}")),
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        *i += 1; // `(crate)` etc.
                    }
                }
            }
            _ => return Ok(deny_unknown_fields),
        }
    }
}

/// Splits a token sequence on top-level commas, tracking `<...>` nesting
/// (angle brackets are plain punctuation in token trees).
fn split_top_level_commas(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut parts: Vec<Vec<TokenTree>> = Vec::new();
    let mut current: Vec<TokenTree> = Vec::new();
    let mut angle_depth = 0i32;
    for tt in stream {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                parts.push(std::mem::take(&mut current));
                continue;
            }
            _ => {}
        }
        current.push(tt);
    }
    if !current.is_empty() {
        parts.push(current);
    }
    parts
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let mut fields = Vec::new();
    for part in split_top_level_commas(stream) {
        if part.is_empty() {
            continue;
        }
        let mut i = 0;
        let default = parse_field_attributes(&part, &mut i)?;
        let name = match part.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected field name, got {other:?}")),
        };
        fields.push(Field { name, default });
    }
    Ok(fields)
}

/// Advances `i` past field attributes and visibility, extracting a
/// `#[serde(default)]` / `#[serde(default = "path")]` marker if present.
fn parse_field_attributes(
    tokens: &[TokenTree],
    i: &mut usize,
) -> Result<Option<FieldDefault>, String> {
    let mut default = None;
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1; // `#`
                match tokens.get(*i) {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                        if let Some(d) = parse_serde_default(g.stream())? {
                            default = Some(d);
                        }
                        *i += 1;
                    }
                    other => return Err(format!("malformed attribute: {other:?}")),
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        *i += 1; // `(crate)` etc.
                    }
                }
            }
            _ => return Ok(default),
        }
    }
}

/// Inspects one attribute body (the tokens inside `#[...]`). Returns the
/// default marker if the attribute is `serde(default)` or
/// `serde(default = "path")`; other attributes yield `None`.
fn parse_serde_default(stream: TokenStream) -> Result<Option<FieldDefault>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    match tokens.first() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return Ok(None),
    }
    let Some(TokenTree::Group(args)) = tokens.get(1) else {
        return Ok(None);
    };
    let args: Vec<TokenTree> = args.stream().into_iter().collect();
    match args.first() {
        Some(TokenTree::Ident(id)) if id.to_string() == "default" => {}
        other => return Err(format!("unsupported serde attribute: {other:?}")),
    }
    match args.get(1) {
        None => Ok(Some(FieldDefault::Trait)),
        Some(TokenTree::Punct(p)) if p.as_char() == '=' => match args.get(2) {
            Some(TokenTree::Literal(lit)) => {
                let text = lit.to_string();
                let path = text
                    .strip_prefix('"')
                    .and_then(|t| t.strip_suffix('"'))
                    .ok_or_else(|| format!("serde(default = ...) expects a string, got {text}"))?;
                Ok(Some(FieldDefault::Path(path.to_string())))
            }
            other => Err(format!("malformed serde(default = ...): {other:?}")),
        },
        other => Err(format!("unsupported serde(default) form: {other:?}")),
    }
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    split_top_level_commas(stream)
        .into_iter()
        .filter(|p| !p.is_empty())
        .count()
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let mut variants = Vec::new();
    for part in split_top_level_commas(stream) {
        if part.is_empty() {
            continue;
        }
        let mut i = 0;
        skip_attributes_and_visibility(&part, &mut i)?;
        let name = match part.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected variant name, got {other:?}")),
        };
        i += 1;
        let kind = match part.get(i) {
            None => VariantKind::Unit,
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => VariantKind::Unit,
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                VariantKind::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                VariantKind::Named(parse_named_fields(g.stream())?)
            }
            other => return Err(format!("unsupported variant body: {other:?}")),
        };
        variants.push(Variant { name, kind });
    }
    Ok(variants)
}

// -------------------------------------------------------------- generation

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::NamedStruct(fields) => {
            let entries: String = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from({n:?}), \
                         ::serde::Serialize::to_value(&self.{n})),",
                        n = f.name
                    )
                })
                .collect();
            format!("::serde::Value::Object(::std::vec![{entries}])")
        }
        Shape::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Shape::TupleStruct(arity) => {
            let items: String = (0..*arity)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i}),"))
                .collect();
            format!("::serde::Value::Array(::std::vec![{items}])")
        }
        Shape::UnitStruct => "::serde::Value::Null".to_string(),
        Shape::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| gen_serialize_arm(name, v))
                .collect();
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

fn gen_serialize_arm(type_name: &str, v: &Variant) -> String {
    let vname = &v.name;
    match &v.kind {
        VariantKind::Unit => format!(
            "{type_name}::{vname} => \
             ::serde::Value::String(::std::string::String::from({vname:?})),"
        ),
        VariantKind::Tuple(1) => format!(
            "{type_name}::{vname}(x0) => ::serde::Value::Object(::std::vec![(\
               ::std::string::String::from({vname:?}), ::serde::Serialize::to_value(x0))]),"
        ),
        VariantKind::Tuple(arity) => {
            let binds: Vec<String> = (0..*arity).map(|i| format!("x{i}")).collect();
            let items: String = binds
                .iter()
                .map(|b| format!("::serde::Serialize::to_value({b}),"))
                .collect();
            format!(
                "{type_name}::{vname}({pat}) => ::serde::Value::Object(::std::vec![(\
                   ::std::string::String::from({vname:?}), \
                   ::serde::Value::Array(::std::vec![{items}]))]),",
                pat = binds.join(", ")
            )
        }
        VariantKind::Named(fields) => {
            let pat: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
            let entries: String = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from({n:?}), \
                         ::serde::Serialize::to_value({n})),",
                        n = f.name
                    )
                })
                .collect();
            format!(
                "{type_name}::{vname} {{ {pat} }} => ::serde::Value::Object(::std::vec![(\
                   ::std::string::String::from({vname:?}), \
                   ::serde::Value::Object(::std::vec![{entries}]))]),",
                pat = pat.join(", ")
            )
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::NamedStruct(fields) => {
            let inits: String = fields
                .iter()
                .map(|f| field_init(f, "entries", name))
                .collect();
            let deny = if item.deny_unknown_fields {
                let known: Vec<String> = fields.iter().map(|f| format!("{:?}", f.name)).collect();
                format!(
                    "::serde::deny_unknown_fields(entries, &[{}], {name:?})?;\n",
                    known.join(", ")
                )
            } else {
                String::new()
            };
            format!(
                "let entries = v.as_object().ok_or_else(|| \
                   ::serde::DeError::expected(\"object\", {name:?}))?;\n\
                 {deny}\
                 ::std::result::Result::Ok({name} {{ {inits} }})"
            )
        }
        Shape::TupleStruct(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Shape::TupleStruct(arity) => {
            let inits: String = (0..*arity)
                .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?,"))
                .collect();
            format!(
                "let items = v.as_array().ok_or_else(|| \
                   ::serde::DeError::expected(\"array\", {name:?}))?;\n\
                 if items.len() != {arity} {{\n\
                   return ::std::result::Result::Err(::serde::DeError::expected(\
                     \"array of length {arity}\", {name:?}));\n\
                 }}\n\
                 ::std::result::Result::Ok({name}({inits}))"
            )
        }
        Shape::UnitStruct => format!("::std::result::Result::Ok({name})"),
        Shape::Enum(variants) => gen_deserialize_enum(name, variants),
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) -> \
               ::std::result::Result<Self, ::serde::DeError> {{\n{body}\n}}\n\
         }}"
    )
}

/// Generates one `field_name: <expr>,` initializer for a derived
/// `from_value`, honouring the field's `#[serde(default)]` marker.
fn field_init(f: &Field, entries_var: &str, context: &str) -> String {
    let n = &f.name;
    match &f.default {
        None => format!("{n}: ::serde::field({entries_var}, {n:?}, {context:?})?,"),
        Some(FieldDefault::Trait) => format!(
            "{n}: match ::serde::opt_field({entries_var}, {n:?}, {context:?})? {{\n\
               ::std::option::Option::Some(v) => v,\n\
               ::std::option::Option::None => ::std::default::Default::default(),\n\
             }},"
        ),
        Some(FieldDefault::Path(path)) => format!(
            "{n}: match ::serde::opt_field({entries_var}, {n:?}, {context:?})? {{\n\
               ::std::option::Option::Some(v) => v,\n\
               ::std::option::Option::None => {path}(),\n\
             }},"
        ),
    }
}

fn gen_deserialize_enum(name: &str, variants: &[Variant]) -> String {
    let unit_arms: String = variants
        .iter()
        .filter(|v| matches!(v.kind, VariantKind::Unit))
        .map(|v| {
            format!(
                "{vn:?} => return ::std::result::Result::Ok({name}::{vn}),",
                vn = v.name
            )
        })
        .collect();
    let data_arms: String = variants
        .iter()
        .filter(|v| !matches!(v.kind, VariantKind::Unit))
        .map(|v| gen_deserialize_variant_arm(name, v))
        .collect();
    format!(
        "if let ::serde::Value::String(tag) = v {{\n\
           match tag.as_str() {{ {unit_arms} _ => {{}} }}\n\
           return ::std::result::Result::Err(::serde::DeError(::std::format!(\
             \"unknown {name} variant `{{tag}}`\")));\n\
         }}\n\
         if let ::std::option::Option::Some(entries) = v.as_object() {{\n\
           if entries.len() == 1 {{\n\
             let (tag, payload) = &entries[0];\n\
             match tag.as_str() {{ {data_arms} _ => {{}} }}\n\
             return ::std::result::Result::Err(::serde::DeError(::std::format!(\
               \"unknown {name} variant `{{tag}}`\")));\n\
           }}\n\
         }}\n\
         ::std::result::Result::Err(::serde::DeError::expected(\
           \"variant string or single-key object\", {name:?}))"
    )
}

fn gen_deserialize_variant_arm(name: &str, v: &Variant) -> String {
    let vn = &v.name;
    match &v.kind {
        VariantKind::Unit => unreachable!("unit variants handled via string arms"),
        VariantKind::Tuple(1) => format!(
            "{vn:?} => return ::std::result::Result::Ok(\
               {name}::{vn}(::serde::Deserialize::from_value(payload)?)),"
        ),
        VariantKind::Tuple(arity) => {
            let inits: String = (0..*arity)
                .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?,"))
                .collect();
            format!(
                "{vn:?} => {{\n\
                   let items = payload.as_array().ok_or_else(|| \
                     ::serde::DeError::expected(\"array\", {vn:?}))?;\n\
                   if items.len() != {arity} {{\n\
                     return ::std::result::Result::Err(::serde::DeError::expected(\
                       \"array of length {arity}\", {vn:?}));\n\
                   }}\n\
                   return ::std::result::Result::Ok({name}::{vn}({inits}));\n\
                 }}"
            )
        }
        VariantKind::Named(fields) => {
            let inits: String = fields.iter().map(|f| field_init(f, "inner", vn)).collect();
            format!(
                "{vn:?} => {{\n\
                   let inner = payload.as_object().ok_or_else(|| \
                     ::serde::DeError::expected(\"object\", {vn:?}))?;\n\
                   return ::std::result::Result::Ok({name}::{vn} {{ {inits} }});\n\
                 }}"
            )
        }
    }
}
