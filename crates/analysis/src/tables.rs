//! Text renderings of the paper's Table 1 and Table 2.

use crate::cost::{CostModel, Method};

/// Render Table 1: per-method factors over the lower bound at a reference
/// configuration (plus the raw per-point values the factors derive from).
pub fn table1(model: &CostModel) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Table 1 — Redundancy analysis (Box-2D{}R, A=B={}, c={})\n",
        model.r, model.a, model.c
    ));
    out.push_str(&format!(
        "{:<14} {:>12} {:>10} {:>12} {:>10} {:>12} {:>10}\n",
        "Method", "Comp/pt", "(xLB)", "Input/pt", "(xLB)", "Param/pt", "(xLB)"
    ));
    for m in Method::all() {
        let c = model.cost(m);
        let f = model.factor_vs_lb(m);
        out.push_str(&format!(
            "{:<14} {:>12.2} {:>10.2} {:>12.2} {:>10.2} {:>12.2} {:>10.2}\n",
            m.name(),
            c.comp,
            f.comp,
            c.input,
            f.input,
            c.param,
            f.param
        ));
    }
    out
}

/// Render Table 2: the Box-2D3R, c=8 numeric comparison.
pub fn table2() -> String {
    let model = CostModel::table2();
    let mut out = String::new();
    out.push_str("Table 2 — Cost per point update, Box-2D3R, 8x8 tile\n");
    out.push_str(&format!(
        "{:<14} {:>12} {:>14} {:>14}\n",
        "Method", "Computation", "Input Access", "Param Access"
    ));
    let paper = [
        (Method::LowerBound, [49.0, 3.06, 0.77]),
        (Method::ConvStencil, [104.0, 13.0, 13.0]),
        (Method::TcStencil, [286.72, 17.92, 17.92]),
        (Method::LoRaStencil, [144.0, 4.0, 12.0]),
        (Method::Spider, [56.0, 14.0, 7.0]),
    ];
    for (m, expect) in paper {
        let c = model.cost(m);
        out.push_str(&format!(
            "{:<14} {:>12.2} {:>14.2} {:>14.2}   (paper: {} / {} / {})\n",
            m.name(),
            c.comp,
            c.input,
            c.param,
            expect[0],
            expect[1],
            expect[2]
        ));
    }
    out.push_str(
        "note: SPIDER computation uses the exact (2r+c)/4 = 3.5 as the paper's\n\
         table does; ceiling (2r+c)/4 to 4, as the memory rows do, gives 64.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_all_methods() {
        let s = table1(&CostModel::table2());
        for m in Method::all() {
            assert!(s.contains(m.name()), "missing {}", m.name());
        }
    }

    #[test]
    fn table2_matches_paper_digits() {
        let s = table2();
        for needle in [
            "56.00", "14.00", "7.00", "286.72", "17.92", "104.00", "3.06",
        ] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    fn table1_factors_exceed_one() {
        let s = table1(&CostModel::table2());
        // Lower bound row has factor 1.00 in every column.
        assert!(s.contains("1.00"));
    }
}
