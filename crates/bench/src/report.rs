//! Plain-text rendering of figure data (series tables + CSV).

/// One plotted line: a method and its y-values across the x-axis.
#[derive(Debug, Clone)]
pub struct Series {
    pub name: String,
    pub values: Vec<f64>,
}

/// Render a figure's data as an aligned text table.
pub fn render(title: &str, x_label: &str, xs: &[String], series: &[Series]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!("{:<22}", x_label));
    for x in xs {
        out.push_str(&format!("{x:>14}"));
    }
    out.push('\n');
    for s in series {
        out.push_str(&format!("{:<22}", s.name));
        for v in &s.values {
            if v.is_nan() {
                out.push_str(&format!("{:>14}", "-"));
            } else {
                out.push_str(&format!("{v:>14.2}"));
            }
        }
        out.push('\n');
    }
    out
}

/// Render the same data as CSV (for downstream plotting).
pub fn render_csv(x_label: &str, xs: &[String], series: &[Series]) -> String {
    let mut out = String::new();
    out.push_str(x_label);
    for s in series {
        out.push(',');
        out.push_str(&s.name);
    }
    out.push('\n');
    for (i, x) in xs.iter().enumerate() {
        out.push_str(x);
        for s in series {
            out.push(',');
            let v = s.values.get(i).copied().unwrap_or(f64::NAN);
            if v.is_nan() {
                out.push_str("");
            } else {
                out.push_str(&format!("{v:.4}"));
            }
        }
        out.push('\n');
    }
    out
}

/// Write a flat `BENCH_*.json` object — `"bench": bench`, then one
/// numeric field per `(key, value, decimals)`, in order — to the path named
/// by the environment variable `path_var` (default `default_path`), and
/// echo it. `bench_gate` compares these files key for key against the
/// committed baselines, so a key keeps its precision from run to run.
pub fn write_bench_json<K: AsRef<str>>(
    bench: &str,
    path_var: &str,
    default_path: &str,
    fields: &[(K, f64, usize)],
) {
    let json = bench_json(bench, fields);
    let path = std::env::var(path_var).unwrap_or_else(|_| default_path.into());
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}:\n{json}");
}

fn bench_json<K: AsRef<str>>(bench: &str, fields: &[(K, f64, usize)]) -> String {
    let mut json = format!("{{\n  \"bench\": \"{bench}\"");
    for (key, value, decimals) in fields {
        json.push_str(&format!(
            ",\n  \"{}\": {:.*}",
            key.as_ref(),
            decimals,
            value
        ));
    }
    json.push_str("\n}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Vec<String>, Vec<Series>) {
        (
            vec!["a".into(), "b".into()],
            vec![
                Series {
                    name: "m1".into(),
                    values: vec![1.0, 2.0],
                },
                Series {
                    name: "m2".into(),
                    values: vec![3.5, f64::NAN],
                },
            ],
        )
    }

    #[test]
    fn bench_json_keeps_each_fields_precision() {
        let json = bench_json(
            "b",
            &[("n", 12.0, 0), ("rate", 0.5, 3), ("p99_us", 256.0, 1)],
        );
        assert_eq!(
            json,
            "{\n  \"bench\": \"b\",\n  \"n\": 12,\n  \"rate\": 0.500,\n  \"p99_us\": 256.0\n}\n"
        );
    }

    #[test]
    fn text_table_contains_values() {
        let (xs, series) = sample();
        let t = render("T", "x", &xs, &series);
        assert!(t.contains("m1"));
        assert!(t.contains("3.50"));
        assert!(t.contains('-'), "NaN renders as dash");
    }

    #[test]
    fn csv_roundtrip_structure() {
        let (xs, series) = sample();
        let c = render_csv("x", &xs, &series);
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "x,m1,m2");
        assert!(lines[1].starts_with("a,1.0000,3.5000"));
        assert_eq!(lines[2], "b,2.0000,");
    }
}
