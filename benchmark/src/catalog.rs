//! The metric catalogue. `BENCHMARK.json` is the one place that names the
//! metrics, their units, directions and bounds; it is read at start-up.
//! What the declaration cannot say — which workloads a metric has a value
//! on — follows from the metric's layer, the part of its name before the
//! first dot.

use std::path::Path;

use mvbc_metrics::json::{parse_json, JsonValue};

use crate::workloads::{Shape, Spec};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// The declared regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The bound that declares a metric exact: one part in a billion, far
/// below one unit of any counted quantity, and still a positive share
/// under the strictest reading of the contract's "bound".
pub const EXACT_BOUND: f64 = 1e-9;

impl MetricDef {
    /// A bound of at most [`EXACT_BOUND`] declares a metric deterministic
    /// given the seed: it is compared for equality, and every repetition
    /// must report the same.
    pub fn exact(&self) -> bool {
        self.bound.is_some_and(|bound| bound <= EXACT_BOUND)
    }

    /// `None` when the metric has a value on `spec`; otherwise why not.
    pub fn not_applicable(&self, spec: &Spec) -> Option<&'static str> {
        let layer = self.name.split_once('.').map_or("", |(layer, _)| layer);
        match (layer, spec.shape) {
            ("core" | "baselines", Shape::Consensus { .. }) => None,
            ("core" | "baselines", _) => {
                Some("Algorithm 1 (mvbc-core) is not on this workload's path")
            }
            ("smr" | "broadcast", Shape::Consensus { .. }) => {
                Some("no replicated log: Algorithm 1 runs alone")
            }
            ("adversary", Shape::Faulty) => None,
            ("adversary", _) => Some("no generated adversary scenarios in this workload"),
            _ => None,
        }
    }
}

/// The two metric lists of `BENCHMARK.json`, in declaration order.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Catalog {
    /// # Errors
    ///
    /// Returns a description of the first entry that is not a metric.
    pub fn from_declaration(doc: &JsonValue) -> Result<Catalog, String> {
        let list = |key: &str| -> Result<Vec<MetricDef>, String> {
            let entries = doc
                .get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?;
            entries
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(JsonValue::as_str);
                    let better = match field("better") {
                        Some("higher") => Better::Higher,
                        Some("lower") => Better::Lower,
                        _ => return Err(format!("bad `better` in {}", m.render())),
                    };
                    match (field("name"), field("unit")) {
                        (Some(name), Some(unit)) => Ok(MetricDef {
                            name: name.to_owned(),
                            unit: unit.to_owned(),
                            better,
                            bound: m.get("bound").and_then(JsonValue::as_f64),
                        }),
                        _ => Err(format!("metric without name or unit: {}", m.render())),
                    }
                })
                .collect()
        };
        Ok(Catalog { end_to_end: list("end_to_end")?, per_layer: list("per_layer")? })
    }

    /// # Errors
    ///
    /// Returns a description when `BENCHMARK.json` under `root` cannot be
    /// read, is not JSON, or lists something that is not a metric.
    pub fn load(root: &Path) -> Result<Catalog, String> {
        let path = root.join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = parse_json(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))?;
        Catalog::from_declaration(&doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::spec;

    fn catalog() -> Catalog {
        Catalog::load(Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap()).unwrap()
    }

    #[test]
    fn applicability_follows_the_layer() {
        let catalog = catalog();
        let consensus = spec("consensus_1mib").unwrap();
        let faulty = spec("log_faulty").unwrap();
        let small = spec("log_small").unwrap();
        let find = |name: &str| catalog.per_layer.iter().find(|m| m.name == name).unwrap();
        assert!(find("core.gen_us").not_applicable(consensus).is_none());
        assert!(find("core.gen_us").not_applicable(small).is_some());
        assert!(find("baselines.fitzi_hirt_bits_ratio").not_applicable(faulty).is_some());
        assert!(find("smr.restarts").not_applicable(consensus).is_some());
        assert!(find("smr.restarts").not_applicable(faulty).is_none());
        assert!(find("adversary.violations").not_applicable(small).is_some());
        assert!(find("adversary.violations").not_applicable(faulty).is_none());
        assert!(find("gf.addmul_long_mbps").not_applicable(consensus).is_none());
        assert!(catalog.end_to_end.iter().all(|m| m.not_applicable(faulty).is_none()));
    }

    #[test]
    fn the_smallest_bound_means_exact() {
        let catalog = catalog();
        let exact: Vec<&str> =
            catalog.end_to_end.iter().filter(|m| m.exact()).map(|m| m.name.as_str()).collect();
        assert_eq!(
            exact,
            [
                "wire_bits_per_payload_bit",
                "rounds_per_op",
                "commit_vticks_p50",
                "commit_vticks_p99"
            ]
        );
        assert!(catalog.per_layer.iter().all(|m| m.bound.is_none() && !m.exact()));
    }
}
