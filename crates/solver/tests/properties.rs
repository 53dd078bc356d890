//! Property-based tests for the optimization substrate: LP optimality and
//! feasibility, MILP vs exhaustive enumeration, and SAT vs brute force.

use proptest::prelude::*;
use sfq_solver::linear::{Constraint, LinExpr, Sense, VarId};
use sfq_solver::milp::MilpProblem;
use sfq_solver::sat::{SatLit, SatSolver};
use sfq_solver::simplex::{solve_lp, LpOutcome};

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// LP solutions are feasible and no grid point beats them.
    #[test]
    fn lp_optimal_vs_grid(
        c0 in -3i32..4, c1 in -3i32..4,
        rows in prop::collection::vec((-3i32..4, -3i32..4, 1i32..8), 1..4),
    ) {
        let mut cons = vec![
            Constraint::new(LinExpr::var(VarId(0)), Sense::Le, 6.0),
            Constraint::new(LinExpr::var(VarId(1)), Sense::Le, 6.0),
        ];
        for &(a0, a1, b) in &rows {
            cons.push(Constraint::new(
                LinExpr::var(VarId(0)) * a0 as f64 + LinExpr::var(VarId(1)) * a1 as f64,
                Sense::Le,
                b as f64,
            ));
        }
        let obj = LinExpr::var(VarId(0)) * c0 as f64 + LinExpr::var(VarId(1)) * c1 as f64;
        match solve_lp(2, &cons, &obj) {
            LpOutcome::Optimal(sol) => {
                for c in &cons {
                    prop_assert!(c.satisfied(&sol.values, 1e-6), "solution infeasible");
                }
                // Integer grid points cannot beat the LP optimum.
                for x in 0..=6 {
                    for y in 0..=6 {
                        let p = [x as f64, y as f64];
                        if cons.iter().all(|c| c.satisfied(&p, 1e-9)) {
                            let v = c0 as f64 * p[0] + c1 as f64 * p[1];
                            prop_assert!(sol.objective <= v + 1e-6,
                                "grid point ({x},{y}) = {v} beats LP {}", sol.objective);
                        }
                    }
                }
            }
            LpOutcome::Infeasible => {
                // The origin must then violate some constraint.
                prop_assert!(
                    cons.iter().any(|c| !c.satisfied(&[0.0, 0.0], 1e-9)),
                    "claimed infeasible but origin feasible"
                );
            }
            LpOutcome::Unbounded => {
                prop_assert!(c0 < 0 || c1 < 0, "bounded box cannot be unbounded... \
                    unless the objective improves along an unbounded ray");
            }
        }
    }

    /// MILP on bounded binaries agrees with exhaustive enumeration.
    #[test]
    fn milp_matches_enumeration(
        costs in prop::collection::vec(-4i32..5, 4),
        weights in prop::collection::vec(0i32..5, 4),
        cap in 0i32..12,
    ) {
        let mut p = MilpProblem::new();
        let vars: Vec<_> = (0..4).map(|_| p.add_int_var(0.0, Some(1.0))).collect();
        let mut w = LinExpr::new();
        let mut c = LinExpr::new();
        for i in 0..4 {
            w.add_term(vars[i], weights[i] as f64);
            c.add_term(vars[i], costs[i] as f64);
        }
        p.add_constraint(w, Sense::Le, cap as f64);
        p.set_objective(c);
        let sol = p.solve().expect("binary knapsack always feasible (all-zero)");
        // Enumerate.
        let mut best = i32::MAX;
        for m in 0..16u32 {
            let wsum: i32 = (0..4).map(|i| weights[i] * ((m >> i) & 1) as i32).sum();
            if wsum <= cap {
                let csum: i32 = (0..4).map(|i| costs[i] * ((m >> i) & 1) as i32).sum();
                best = best.min(csum);
            }
        }
        prop_assert!((sol.objective - best as f64).abs() < 1e-6,
            "MILP {} vs enumeration {best}", sol.objective);
    }

    /// CDCL agrees with brute force on random 3-SAT.
    #[test]
    fn sat_matches_brute_force(
        clauses in prop::collection::vec(
            prop::collection::vec((0usize..7, any::<bool>()), 1..4), 1..24),
    ) {
        let nv = 7;
        let mut brute = false;
        'outer: for m in 0..(1u32 << nv) {
            for cl in &clauses {
                if !cl.iter().any(|&(v, neg)| ((m >> v) & 1 == 1) != neg) {
                    continue 'outer;
                }
            }
            brute = true;
            break;
        }
        let mut s = SatSolver::new();
        let vars: Vec<_> = (0..nv).map(|_| s.new_var()).collect();
        for cl in &clauses {
            s.add_clause(cl.iter().map(|&(v, neg)| {
                if neg { SatLit::neg(vars[v]) } else { SatLit::pos(vars[v]) }
            }));
        }
        let res = s.solve();
        prop_assert_eq!(res.is_some(), brute);
        if let Some(model) = res {
            for cl in &clauses {
                prop_assert!(cl.iter().any(|&(v, neg)| model[vars[v].index()] != neg));
            }
        }
    }
}
