//! Workload runner and figure/table assembly.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

use cqi_core::{ChaseConfig, ExplainRequest, Session, Variant};
use cqi_datasets::{DatasetQuery, QueryKind};
use cqi_drc::{Metrics, SyntaxTree};

/// One (query, variant) measurement.
#[derive(Clone, Debug)]
pub struct RunRecord {
    pub query: String,
    pub kind: QueryKind,
    pub variant: Variant,
    pub metrics: Metrics,
    pub runtime: Duration,
    /// Why the run stopped early (deadline or cancellation), if it did.
    pub interrupted: Option<cqi_core::Interrupted>,
    pub num_coverages: usize,
    pub mean_size: f64,
    pub raw_accepted: usize,
    pub time_to_first: Option<Duration>,
    pub mean_gap: Option<Duration>,
    /// Coverages found (as sorted leaf-id lists) — used for the Fig. 10
    /// common-coverage size comparison.
    pub coverages: Vec<Vec<u32>>,
    pub sizes_by_coverage: BTreeMap<Vec<u32>, usize>,
    /// Engine counters of this run (root fan-outs, memo tier hit rates, …).
    pub stats: cqi_core::ChaseStats,
}

/// Runs one variant over one query, through the public [`Session`] API
/// (one-shot: each measurement gets cold caches, as the figures assume).
pub fn run_one(dq: &DatasetQuery, variant: Variant, cfg: &ChaseConfig) -> RunRecord {
    let tree = SyntaxTree::new(dq.query.clone());
    let session = Session::new(dq.query.schema.clone()).config(cfg.clone());
    let sol = session
        .explain_collect(ExplainRequest::tree(&tree).variant(variant))
        .expect("pre-parsed trees compile unconditionally");
    let mut coverages = Vec::new();
    let mut sizes_by_coverage = BTreeMap::new();
    for si in &sol.instances {
        let cov: Vec<u32> = si.coverage.iter().map(|l| l.0).collect();
        sizes_by_coverage.insert(cov.clone(), si.size());
        coverages.push(cov);
    }
    RunRecord {
        query: dq.name.clone(),
        kind: dq.kind,
        variant,
        metrics: Metrics::of(&dq.query),
        runtime: sol.total_time,
        interrupted: sol.interrupted,
        num_coverages: sol.num_coverages(),
        mean_size: sol.mean_size(),
        raw_accepted: sol.raw_accepted,
        time_to_first: sol.time_to_first(),
        mean_gap: sol.mean_gap(),
        coverages,
        sizes_by_coverage,
        stats: sol.stats,
    }
}

/// Runs a set of variants over a whole workload.
pub fn run_workload(
    queries: &[DatasetQuery],
    variants: &[Variant],
    cfg: &ChaseConfig,
    progress: bool,
) -> Vec<RunRecord> {
    let mut out = Vec::with_capacity(queries.len() * variants.len());
    for dq in queries {
        for v in variants {
            if progress {
                eprintln!("  [{}] {} ...", v.name(), dq.name);
            }
            out.push(run_one(dq, *v, cfg));
        }
    }
    out
}

/// The x-axis measures of Fig. 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum XMeasure {
    TreeSize,
    TreeHeight,
    OrBelowForallPlusForall,
    Quantifiers,
}

impl XMeasure {
    pub const ALL: [XMeasure; 4] = [
        XMeasure::TreeSize,
        XMeasure::TreeHeight,
        XMeasure::OrBelowForallPlusForall,
        XMeasure::Quantifiers,
    ];

    pub fn label(self) -> &'static str {
        match self {
            XMeasure::TreeSize => "Size of Query Tree",
            XMeasure::TreeHeight => "Height of Query Tree",
            XMeasure::OrBelowForallPlusForall => "# Or Below Forall + # Forall",
            XMeasure::Quantifiers => "# Quantifiers",
        }
    }

    pub fn of(self, m: &Metrics) -> usize {
        match self {
            XMeasure::TreeSize => m.size,
            XMeasure::TreeHeight => m.height,
            XMeasure::OrBelowForallPlusForall => m.or_below_forall_plus_forall,
            XMeasure::Quantifiers => m.quantifiers,
        }
    }
}

/// Mean runtime per (x-value, variant): one Fig. 8 panel.
pub fn runtime_series(
    records: &[RunRecord],
    x: XMeasure,
) -> BTreeMap<usize, BTreeMap<Variant, f64>> {
    let mut acc: BTreeMap<usize, BTreeMap<Variant, (f64, usize)>> = BTreeMap::new();
    for r in records {
        let xv = x.of(&r.metrics);
        let e = acc
            .entry(xv)
            .or_default()
            .entry(r.variant)
            .or_insert((0.0, 0));
        e.0 += r.runtime.as_secs_f64();
        e.1 += 1;
    }
    acc.into_iter()
        .map(|(xv, per_variant)| {
            (
                xv,
                per_variant
                    .into_iter()
                    .map(|(v, (sum, n))| (v, sum / n as f64))
                    .collect(),
            )
        })
        .collect()
}

/// Mean #coverages per (x-value, variant): Fig. 10 left / Fig. 11 right.
pub fn coverage_series(
    records: &[RunRecord],
    x: XMeasure,
) -> BTreeMap<usize, BTreeMap<Variant, f64>> {
    let mut acc: BTreeMap<usize, BTreeMap<Variant, (f64, usize)>> = BTreeMap::new();
    for r in records {
        let xv = x.of(&r.metrics);
        let e = acc
            .entry(xv)
            .or_default()
            .entry(r.variant)
            .or_insert((0.0, 0));
        e.0 += r.num_coverages as f64;
        e.1 += 1;
    }
    acc.into_iter()
        .map(|(xv, per_variant)| {
            (
                xv,
                per_variant
                    .into_iter()
                    .map(|(v, (sum, n))| (v, sum / n as f64))
                    .collect(),
            )
        })
        .collect()
}

/// §5.1 interactivity, per x-value: mean seconds until the first instance
/// was accepted (`CSolution::time_to_first`), grouped like the runtime
/// series. Queries that produced no instance contribute nothing.
pub fn time_to_first_series(
    records: &[RunRecord],
    x: XMeasure,
) -> BTreeMap<usize, BTreeMap<Variant, f64>> {
    let mut acc: BTreeMap<usize, BTreeMap<Variant, (f64, usize)>> = BTreeMap::new();
    for r in records {
        let Some(ttf) = r.time_to_first else {
            continue;
        };
        let xv = x.of(&r.metrics);
        let e = acc
            .entry(xv)
            .or_default()
            .entry(r.variant)
            .or_insert((0.0, 0));
        e.0 += ttf.as_secs_f64();
        e.1 += 1;
    }
    acc.into_iter()
        .map(|(xv, per_variant)| {
            (
                xv,
                per_variant
                    .into_iter()
                    .map(|(v, (sum, n))| (v, sum / n as f64))
                    .collect(),
            )
        })
        .collect()
}

/// Fig. 10 right: mean instance size over coverages returned by *all*
/// variants of the same query ("joint coverage", the paper's fairness
/// device), grouped by an x measure.
pub fn joint_coverage_size_series(
    records: &[RunRecord],
    variants: &[Variant],
    x: XMeasure,
) -> BTreeMap<usize, BTreeMap<Variant, f64>> {
    // Group records per query.
    let mut by_query: BTreeMap<&str, Vec<&RunRecord>> = BTreeMap::new();
    for r in records {
        by_query.entry(r.query.as_str()).or_default().push(r);
    }
    let mut acc: BTreeMap<usize, BTreeMap<Variant, (f64, usize)>> = BTreeMap::new();
    for (_q, rs) in by_query {
        if rs.len() < variants.len() {
            continue;
        }
        // Coverages returned by every variant.
        let mut joint: Option<Vec<Vec<u32>>> = None;
        for r in &rs {
            let set: Vec<Vec<u32>> = r.coverages.clone();
            joint = Some(match joint {
                None => set,
                Some(j) => j.into_iter().filter(|c| set.contains(c)).collect(),
            });
        }
        let joint = joint.unwrap_or_default();
        if joint.is_empty() {
            continue;
        }
        for r in &rs {
            let xv = x.of(&r.metrics);
            let sizes: Vec<usize> = joint
                .iter()
                .filter_map(|c| r.sizes_by_coverage.get(c).copied())
                .collect();
            if sizes.is_empty() {
                continue;
            }
            let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
            let e = acc
                .entry(xv)
                .or_default()
                .entry(r.variant)
                .or_insert((0.0, 0));
            e.0 += mean;
            e.1 += 1;
        }
    }
    acc.into_iter()
        .map(|(xv, per_variant)| {
            (
                xv,
                per_variant
                    .into_iter()
                    .map(|(v, (sum, n))| (v, sum / n as f64))
                    .collect(),
            )
        })
        .collect()
}

/// Pretty-prints one series table: rows = x values, columns = variants.
pub fn print_series(
    title: &str,
    ylabel: &str,
    variants: &[Variant],
    series: &BTreeMap<usize, BTreeMap<Variant, f64>>,
) {
    println!("\n== {title} ==  (cell = {ylabel})");
    print!("{:>6} |", "x");
    for v in variants {
        print!(" {:>11}", v.name());
    }
    println!();
    println!("{}", "-".repeat(8 + 12 * variants.len()));
    for (xv, per_variant) in series {
        print!("{xv:>6} |");
        for v in variants {
            match per_variant.get(v) {
                Some(val) => print!(" {val:>11.3}"),
                None => print!(" {:>11}", "-"),
            }
        }
        println!();
    }
}

/// Machine-readable figure output: writes one CSV per emitted series plus
/// a combined `figures.json` next to the pretty tables, so perf/figure
/// regressions are diffable in CI (`reproduce --out-dir DIR`).
pub struct SeriesSink {
    dir: PathBuf,
    json_entries: Vec<String>,
}

fn slugify(title: &str) -> String {
    let mut slug = String::new();
    for c in title.chars() {
        if c.is_ascii_alphanumeric() {
            slug.push(c.to_ascii_lowercase());
        } else if !slug.ends_with('_') && !slug.is_empty() {
            slug.push('_');
        }
    }
    slug.trim_end_matches('_').to_owned()
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            '\n' => vec!['\\', 'n'],
            _ => vec![c],
        })
        .collect()
}

impl SeriesSink {
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<SeriesSink> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SeriesSink {
            dir,
            json_entries: Vec::new(),
        })
    }

    /// Writes `<slug>.csv` for one series and records it for the combined
    /// JSON (written by [`finish`](Self::finish)).
    pub fn emit(
        &mut self,
        title: &str,
        ylabel: &str,
        variants: &[Variant],
        series: &BTreeMap<usize, BTreeMap<Variant, f64>>,
    ) -> std::io::Result<()> {
        let slug = slugify(title);
        let mut csv = String::from("x");
        for v in variants {
            csv.push(',');
            csv.push_str(v.name());
        }
        csv.push('\n');
        let mut points = Vec::new();
        for (xv, per_variant) in series {
            csv.push_str(&xv.to_string());
            let mut row = Vec::new();
            for v in variants {
                match per_variant.get(v) {
                    Some(val) => {
                        csv.push_str(&format!(",{val:.6}"));
                        row.push(format!("\"{}\": {val:.6}", json_escape(v.name())));
                    }
                    None => csv.push(','),
                }
            }
            csv.push('\n');
            points.push(format!("{{\"x\": {xv}, {}}}", row.join(", ")));
        }
        std::fs::write(self.dir.join(format!("{slug}.csv")), csv)?;
        self.json_entries.push(format!(
            "{{\"title\": \"{}\", \"ylabel\": \"{}\", \"csv\": \"{slug}.csv\", \"points\": [{}]}}",
            json_escape(title),
            json_escape(ylabel),
            points.join(", ")
        ));
        Ok(())
    }

    /// Writes an arbitrary table as `<slug>.csv` and records it in the
    /// combined JSON (used by `table1` and the interactivity report).
    pub fn emit_table(
        &mut self,
        title: &str,
        header: &[&str],
        rows: &[Vec<String>],
    ) -> std::io::Result<()> {
        let slug = slugify(title);
        let mut csv = header.join(",");
        csv.push('\n');
        for row in rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        std::fs::write(self.dir.join(format!("{slug}.csv")), csv)?;
        let cols: Vec<String> = header.iter().map(|h| format!("\"{}\"", json_escape(h))).collect();
        let json_rows: Vec<String> = rows
            .iter()
            .map(|r| {
                let cells: Vec<String> =
                    r.iter().map(|c| format!("\"{}\"", json_escape(c))).collect();
                format!("[{}]", cells.join(", "))
            })
            .collect();
        self.json_entries.push(format!(
            "{{\"title\": \"{}\", \"csv\": \"{slug}.csv\", \"columns\": [{}], \"rows\": [{}]}}",
            json_escape(title),
            cols.join(", "),
            json_rows.join(", ")
        ));
        Ok(())
    }

    /// Writes the combined `figures.json`.
    pub fn finish(&self) -> std::io::Result<()> {
        let mut out = std::fs::File::create(self.dir.join("figures.json"))?;
        writeln!(out, "[")?;
        for (i, e) in self.json_entries.iter().enumerate() {
            writeln!(
                out,
                "  {e}{}",
                if i + 1 < self.json_entries.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]")?;
        Ok(())
    }
}

/// §5.1 interactivity statistics for one variant over a workload.
pub struct Interactivity {
    pub variant: Variant,
    pub mean_time_to_first: Option<Duration>,
    pub mean_gap: Option<Duration>,
}

pub fn interactivity(records: &[RunRecord], variant: Variant) -> Interactivity {
    let firsts: Vec<Duration> = records
        .iter()
        .filter(|r| r.variant == variant)
        .filter_map(|r| r.time_to_first)
        .collect();
    let gaps: Vec<Duration> = records
        .iter()
        .filter(|r| r.variant == variant)
        .filter_map(|r| r.mean_gap)
        .collect();
    let mean = |v: &[Duration]| -> Option<Duration> {
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<Duration>() / v.len() as u32)
        }
    };
    Interactivity {
        variant,
        mean_time_to_first: mean(&firsts),
        mean_gap: mean(&gaps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqi_datasets::beers_queries;

    #[test]
    fn run_one_produces_record() {
        let qs = beers_queries();
        let q2b = qs.iter().find(|q| q.name == "Q2B").unwrap();
        let cfg = ChaseConfig::with_limit(6)
            .enforce_keys(true)
            .timeout(Duration::from_secs(10));
        let rec = run_one(q2b, Variant::ConjAdd, &cfg);
        assert!(rec.num_coverages >= 1, "Q2B should be satisfiable");
        assert_eq!(rec.variant, Variant::ConjAdd);
    }

    #[test]
    fn series_group_by_measure() {
        let qs = beers_queries();
        let cfg = ChaseConfig::with_limit(4)
            .enforce_keys(true)
            .timeout(Duration::from_secs(5));
        let subset: Vec<_> = qs
            .into_iter()
            .filter(|q| matches!(q.name.as_str(), "Q2A" | "Q2B"))
            .collect();
        let records = run_workload(&subset, &[Variant::ConjEO], &cfg, false);
        let s = runtime_series(&records, XMeasure::Quantifiers);
        assert!(!s.is_empty());
        let c = coverage_series(&records, XMeasure::Quantifiers);
        assert_eq!(s.len(), c.len());
    }
}
