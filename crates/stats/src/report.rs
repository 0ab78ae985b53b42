//! Machine-readable experiment records.
//!
//! Each figure/table harness writes one JSON file under `results/` holding
//! both the measured values and the paper's reference values, so
//! EXPERIMENTS.md can be regenerated mechanically and regressions diffed.

use std::io;

use crate::json::Json;

/// One measured series (e.g. one application across configurations).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series label (application or configuration name).
    pub label: String,
    /// X labels (lane counts, configuration names, ...).
    pub x: Vec<String>,
    /// Measured values.
    pub values: Vec<f64>,
    /// The paper's reference values where the paper reports them
    /// (empty when the paper only shows a chart without numbers).
    pub paper: Vec<f64>,
}

impl Series {
    /// Build a series, checking arity.
    pub fn new(label: impl Into<String>, x: &[String], values: Vec<f64>) -> Self {
        let label = label.into();
        assert_eq!(x.len(), values.len(), "series `{label}` arity mismatch");
        Series { label, x: x.to_vec(), values, paper: Vec::new() }
    }

    /// Attach the paper's reference values.
    pub fn with_paper(mut self, paper: Vec<f64>) -> Self {
        assert_eq!(self.values.len(), paper.len(), "paper arity mismatch");
        self.paper = paper;
        self
    }

    fn to_json(&self) -> Json {
        let mut m = std::collections::BTreeMap::new();
        m.insert("label".to_string(), Json::Str(self.label.clone()));
        m.insert("x".to_string(), Json::Arr(self.x.iter().map(|s| Json::Str(s.clone())).collect()));
        m.insert(
            "values".to_string(),
            Json::Arr(self.values.iter().map(|&v| Json::Num(v)).collect()),
        );
        m.insert(
            "paper".to_string(),
            Json::Arr(self.paper.iter().map(|&v| Json::Num(v)).collect()),
        );
        Json::Obj(m)
    }

    fn from_json(v: &Json) -> Result<Self, &'static str> {
        let label =
            v.get("label").and_then(Json::as_str).ok_or("series missing `label`")?.to_string();
        let x = v
            .get("x")
            .and_then(Json::as_arr)
            .ok_or("series missing `x`")?
            .iter()
            .map(|s| s.as_str().map(str::to_string).ok_or("non-string x label"))
            .collect::<Result<Vec<_>, _>>()?;
        let values = num_array(v.get("values"), "series missing `values`")?;
        // `paper` is optional and defaults to empty, matching the old
        // #[serde(default)] behavior.
        let paper = match v.get("paper") {
            Some(p) => num_array(Some(p), "non-numeric paper value")?,
            None => Vec::new(),
        };
        Ok(Series { label, x, values, paper })
    }
}

fn num_array(v: Option<&Json>, msg: &'static str) -> Result<Vec<f64>, &'static str> {
    v.and_then(Json::as_arr).ok_or(msg)?.iter().map(|n| n.as_f64().ok_or(msg)).collect()
}

/// One experiment (a figure or table of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// Identifier, e.g. `fig3` or `table4`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// What quantity `values` holds (e.g. "speedup over base").
    pub metric: String,
    /// Measured series.
    pub series: Vec<Series>,
}

impl Experiment {
    /// Create an empty experiment record.
    pub fn new(id: &str, title: &str, metric: &str) -> Self {
        Experiment {
            id: id.to_string(),
            title: title.to_string(),
            metric: metric.to_string(),
            series: Vec::new(),
        }
    }

    /// Append a series.
    pub fn push(&mut self, s: Series) -> &mut Self {
        self.series.push(s);
        self
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        let mut m = std::collections::BTreeMap::new();
        m.insert("id".to_string(), Json::Str(self.id.clone()));
        m.insert("title".to_string(), Json::Str(self.title.clone()));
        m.insert("metric".to_string(), Json::Str(self.metric.clone()));
        m.insert(
            "series".to_string(),
            Json::Arr(self.series.iter().map(Series::to_json).collect()),
        );
        Json::Obj(m).pretty()
    }

    /// Parse a record back from JSON text.
    pub fn from_json(text: &str) -> io::Result<Self> {
        let invalid =
            |e: &dyn std::fmt::Display| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
        let v = Json::parse(text).map_err(|e| invalid(&e))?;
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| invalid(&format!("experiment missing `{k}`")))
        };
        let series = v
            .get("series")
            .and_then(Json::as_arr)
            .ok_or_else(|| invalid(&"experiment missing `series`"))?
            .iter()
            .map(|s| Series::from_json(s).map_err(|e| invalid(&e)))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Experiment {
            id: field("id")?,
            title: field("title")?,
            metric: field("metric")?,
            series,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let mut e = Experiment::new("fig3", "VLT speedup", "speedup over base");
        let x = vec!["2 threads".to_string(), "4 threads".to_string()];
        e.push(Series::new("mpenc", &x, vec![1.6, 1.8]).with_paper(vec![1.8, 2.0]));
        let json = e.to_json();
        let back = Experiment::from_json(&json).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn missing_paper_defaults_to_empty() {
        let text = r#"{
            "id": "t", "title": "x", "metric": "y",
            "series": [{"label": "a", "x": ["i"], "values": [1.5]}]
        }"#;
        let e = Experiment::from_json(text).unwrap();
        assert_eq!(e.series[0].paper, Vec::<f64>::new());
        assert_eq!(e.series[0].values, vec![1.5]);
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        Series::new("a", &["one".to_string()], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn paper_arity_checked() {
        let x = vec!["one".to_string()];
        let _ = Series::new("a", &x, vec![1.0]).with_paper(vec![1.0, 2.0]);
    }
}
