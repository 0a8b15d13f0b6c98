//! Small helpers over the vendored JSON value type.

use serde::Value;

pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

pub fn get_f64(v: &Value, key: &str) -> Option<f64> {
    get(v, key).and_then(Value::as_f64)
}

pub fn get_u64(v: &Value, key: &str) -> Option<u64> {
    get(v, key).and_then(Value::as_u64)
}

/// An object from (key, value) pairs.
pub fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str(text.trim()).map_err(|e| e.to_string())
}

pub fn render(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
}
