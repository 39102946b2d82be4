//! The `BENCH_*.json` artifact envelope.
//!
//! Values are built and rendered with [`ve_obs::json::Json`], the
//! workspace's one JSON layer (key-sorted objects, caller-chosen number
//! precision, non-finite values as `null`), which is also what `ve-report`
//! reads the artifacts back with. [`Artifact`] adds the two members the
//! regression sentinel relies on: every artifact carries a `vocalexplore/...`
//! `schema` marker and a `quick` flag (ratio rules only compare like-for-like
//! runs).

use std::collections::BTreeMap;
use ve_obs::json::Json;

/// One `BENCH_*.json` artifact under construction. `schema` and `quick` are
/// mandatory at construction so no emitter can forget them.
pub struct Artifact {
    members: BTreeMap<String, Json>,
}

impl Artifact {
    pub fn new(schema: &str, quick: bool) -> Self {
        assert!(
            schema.starts_with("vocalexplore/"),
            "artifact schemas live under vocalexplore/"
        );
        let mut members = BTreeMap::new();
        members.insert("schema".to_string(), Json::str(schema));
        members.insert("quick".to_string(), Json::Bool(quick));
        Self { members }
    }

    pub fn field(mut self, key: &str, value: Json) -> Self {
        self.members.insert(key.to_string(), value);
        self
    }

    pub fn render(&self) -> String {
        Json::Obj(self.members.clone()).render()
    }

    /// Writes the artifact to `path` and echoes it to stdout — the shared
    /// tail of every bench `main`.
    pub fn write(&self, path: &str) {
        let json = self.render();
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("{json}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ve_obs::json::parse;

    #[test]
    fn objects_render_key_sorted_regardless_of_insertion_order() {
        let a = Artifact::new("vocalexplore/bench_x/v1", true)
            .field("zeta", Json::u64(1))
            .field(
                "alpha",
                Json::obj([("b", Json::u64(2)), ("a", Json::u64(3))]),
            );
        let b = Artifact::new("vocalexplore/bench_x/v1", true)
            .field(
                "alpha",
                Json::obj([("a", Json::u64(3)), ("b", Json::u64(2))]),
            )
            .field("zeta", Json::u64(1));
        assert_eq!(a.render(), b.render());
        let text = a.render();
        let alpha = text.find("\"alpha\"").unwrap();
        let zeta = text.find("\"zeta\"").unwrap();
        let quick = text.find("\"quick\"").unwrap();
        assert!(alpha < quick && quick < zeta, "{text}");
    }

    #[test]
    fn numbers_carry_explicit_precision_and_nonfinite_degrades_to_null() {
        assert_eq!(Json::f64(718.44, 1), Json::Num("718.4".to_string()));
        assert_eq!(Json::f64(2.0, 3), Json::Num("2.000".to_string()));
        assert_eq!(Json::f64(f64::NAN, 1), Json::Null);
        assert_eq!(Json::f64(f64::INFINITY, 1), Json::Null);
        assert_eq!(Json::opt_f64(None, 1), Json::Null);
    }

    #[test]
    fn rendered_artifacts_parse_back_and_escape_strings() {
        let artifact = Artifact::new("vocalexplore/bench_x/v1", false)
            .field("note", Json::str("a\"b\\c\nd"))
            .field(
                "arr",
                Json::Arr(vec![Json::u64(4), Json::u64(1), Json::u64(50)]),
            )
            .field("nested", Json::obj([("empty", Json::Obj(BTreeMap::new()))]));
        let text = artifact.render();
        assert!(text.contains("\"arr\": [4, 1, 50]"), "{text}");
        assert!(text.contains("a\\\"b\\\\c\\nd"), "{text}");
        assert!(text.contains("\"empty\": {}"), "{text}");
        assert!(text.ends_with("}\n"));
        assert_eq!(parse(&text), Ok(Json::Obj(artifact.members)));
    }
}
