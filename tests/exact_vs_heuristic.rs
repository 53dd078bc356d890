//! Integration test: cross-validation of the scalable engines against exact
//! ones — the phase-assignment heuristic vs the MILP (the paper's ILP of
//! §II-B), the greedy DFF-chain builder vs exhaustive search, and the T1
//! staggering construction against the constraints of eq. (5).

use sfq_t1::circuits::epfl;
use sfq_t1::circuits::random::{random_aig, RandomAigConfig};
use sfq_t1::t1map::cells::CellLibrary;
use sfq_t1::t1map::dff::{build_chain, insert_dffs, Requirement};
use sfq_t1::t1map::flow::{run_flow, FlowConfig};
use sfq_t1::t1map::mapped::MappedCell;
use sfq_t1::t1map::mapper::map;
use sfq_t1::t1map::phase::{assign_phases, assign_phases_exact, edge_dff_objective};

#[test]
fn heuristic_matches_milp_on_small_adders() {
    let lib = CellLibrary::default();
    for bits in [2usize, 3, 4] {
        let aig = epfl::adder(bits);
        let mc = map(&aig, &lib, None).circuit;
        for n in [1u32, 2, 4] {
            let h = assign_phases(&mc, n, 3);
            let e = assign_phases_exact(&mc, n).expect("exact solvable");
            let ho = edge_dff_objective(&mc, &h);
            let eo = edge_dff_objective(&mc, &e);
            assert!(
                eo <= ho,
                "exact must be optimal: {eo} vs {ho} ({bits} bits, n={n})"
            );
            assert!(
                ho <= eo + eo / 4 + 2,
                "heuristic within 25%+2 of optimum: {ho} vs {eo} ({bits} bits, n={n})"
            );
        }
    }
}

#[test]
fn heuristic_matches_milp_on_random_networks() {
    let lib = CellLibrary::default();
    for seed in 0..6 {
        let cfg = RandomAigConfig {
            num_pis: 5,
            num_gates: 14,
            num_pos: 3,
            xor_percent: 30,
        };
        let aig = random_aig(seed, &cfg);
        let mc = map(&aig, &lib, None).circuit;
        for n in [1u32, 4] {
            let h = assign_phases(&mc, n, 3);
            let Ok(e) = assign_phases_exact(&mc, n) else {
                continue;
            };
            let ho = edge_dff_objective(&mc, &h);
            let eo = edge_dff_objective(&mc, &e);
            assert!(eo <= ho, "seed {seed} n={n}: exact {eo} vs heuristic {ho}");
        }
    }
}

/// Exhaustive search: is there a feasible chain with exactly `k` DFFs?
fn feasible_with_k(source: i64, reqs: &[Requirement], n: i64, k: usize) -> bool {
    let horizon = reqs
        .iter()
        .map(|r| match *r {
            Requirement::Window(t) => t - 1,
            Requirement::Exact(t) => t,
        })
        .max()
        .unwrap_or(source);
    let candidates: Vec<i64> = (source + 1..=horizon).collect();
    fn ok(chain: &[i64], source: i64, reqs: &[Requirement], n: i64) -> bool {
        let mut prev = source;
        for &s in chain {
            if s - prev > n {
                return false;
            }
            prev = s;
        }
        reqs.iter().all(|r| match *r {
            Requirement::Exact(tau) => tau == source || chain.contains(&tau),
            Requirement::Window(t) => std::iter::once(source)
                .chain(chain.iter().copied())
                .any(|s| s >= t - n && s < t),
        })
    }
    fn rec(
        cands: &[i64],
        k: usize,
        start: usize,
        cur: &mut Vec<i64>,
        source: i64,
        reqs: &[Requirement],
        n: i64,
    ) -> bool {
        if cur.len() == k {
            return ok(cur, source, reqs, n);
        }
        for i in start..cands.len() {
            cur.push(cands[i]);
            if rec(cands, k, i + 1, cur, source, reqs, n) {
                return true;
            }
            cur.pop();
        }
        false
    }
    rec(&candidates, k, 0, &mut Vec::new(), source, reqs, n)
}

#[test]
fn chain_builder_is_optimal_vs_exhaustive() {
    for (source, reqs, n) in [
        (
            0i64,
            vec![Requirement::Window(5), Requirement::Window(9)],
            4i64,
        ),
        (
            0,
            vec![
                Requirement::Exact(3),
                Requirement::Exact(5),
                Requirement::Window(11),
            ],
            4,
        ),
        (
            2,
            vec![
                Requirement::Exact(4),
                Requirement::Exact(5),
                Requirement::Exact(6),
            ],
            4,
        ),
        (0, vec![Requirement::Window(7)], 1),
        (
            1,
            vec![
                Requirement::Window(4),
                Requirement::Exact(9),
                Requirement::Window(12),
            ],
            3,
        ),
        (
            0,
            vec![
                Requirement::Exact(2),
                Requirement::Window(10),
                Requirement::Window(6),
            ],
            4,
        ),
    ] {
        let greedy = build_chain(source, &reqs, n).dff_count();
        // No smaller chain exists…
        for k in 0..greedy {
            assert!(
                !feasible_with_k(source, &reqs, n, k),
                "greedy used {greedy} but {k} suffices (source {source}, n={n}, {reqs:?})"
            );
        }
        // …and the greedy one itself is feasible by construction (checked
        // indirectly through pulse simulation elsewhere).
    }
}

#[test]
fn chain_builder_optimal_on_random_requirement_sets() {
    let mut seed = 0xACE1u64;
    let mut next = move |m: u64| {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) % m
    };
    for _ in 0..40 {
        let n = 1 + next(4) as i64;
        let source = next(3) as i64;
        let mut reqs = Vec::new();
        let count = 1 + next(3);
        let mut exacts: Vec<i64> = Vec::new();
        for _ in 0..count {
            let t = source + 1 + next(8) as i64;
            if next(2) == 0 {
                reqs.push(Requirement::Window(t + 1));
            } else if !exacts.contains(&t) {
                exacts.push(t);
                reqs.push(Requirement::Exact(t));
            }
        }
        if reqs.is_empty() {
            continue;
        }
        let greedy = build_chain(source, &reqs, n).dff_count();
        for k in 0..greedy.min(4) {
            assert!(
                !feasible_with_k(source, &reqs, n, k),
                "greedy {greedy} beaten by {k}: source {source} n {n} {reqs:?}"
            );
        }
    }
}

#[test]
fn t1_staggering_satisfies_eq5() {
    // For every T1 cell in a mapped+scheduled adder, check the chosen
    // delivery stages against eq. (5): three stages, pairwise distinct,
    // within the capture window, at/after the operand sources.
    let lib = CellLibrary::default();
    let aig = epfl::adder(10);
    let res = run_flow(&aig, &lib, &FlowConfig::t1(4));
    let n = 4i64;
    let mut t1_cells = 0;
    for (id, cell) in res.mapped.cells() {
        let MappedCell::T1 { fanins } = cell else {
            continue;
        };
        t1_cells += 1;
        let sigma = res.schedule.stages[id.index()];
        let offsets = res.schedule.t1_offsets[id.index()].expect("offsets");
        // Our chosen delivery stages.
        let chosen: Vec<i64> = offsets.iter().map(|o| sigma - o).collect();
        // d_k in [max(src_k, sigma - n), sigma - 1], pairwise distinct.
        let mut sorted = chosen.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "distinct deliveries");
        for (k, e) in fanins.iter().enumerate() {
            let src = res.schedule.stages[e.cell.index()];
            assert!(chosen[k] >= src && chosen[k] >= sigma - n && chosen[k] < sigma);
        }
    }
    assert!(t1_cells >= 8, "adder(10) must instantiate T1 cells");
}

#[test]
fn insertion_total_is_sum_of_chains() {
    let lib = CellLibrary::default();
    let aig = epfl::adder(6);
    let mc = map(&aig, &lib, None).circuit;
    let sched = assign_phases(&mc, 4, 2);
    let plan = insert_dffs(&mc, &sched);
    let sum: u64 = plan.drivers().map(|d| d.members.len() as u64).sum();
    assert_eq!(sum, plan.total_dffs);
}
