//! `gen`: the seeded raw-input generator.
//!
//! Builds the preset graph with `topology::generate` and writes it as
//! the three overlapping sources `ingest` merges — CAIDA-style AS
//! links, a DIMES-like CSV and a plain edge list — over remapped
//! 32-bit AS numbers, with about a quarter of the links repeated in a
//! second source. Beside them go the files the checks compare against:
//! `truth.edges` (the generated graph, in the byte form `ingest --out`
//! writes) and `truth.map` (the AS number of each node, in the form of
//! `ingest --map`).

use crate::{preset, Flags, Json};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::path::Path;

pub fn run(flags: &Flags) -> Result<String, String> {
    let config = preset(flags.str("preset")?)?;
    let seed: u64 = flags.num("seed")?;
    let out = Path::new(flags.str("out")?);
    let topo = topology::generate(&config).map_err(|e| e.to_string())?;
    let g = topo.graph;
    if !asgraph::components::is_connected(&g) {
        // Ingest drops isolated ASes and `--largest-cc` keeps one
        // component, so only a connected graph survives unchanged.
        return Err("the preset graph is not connected".to_owned());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let asns = remap(g.node_count(), &mut rng);

    // Every link lands in one source; a quarter also in a second one,
    // in either orientation, so the merge has real duplicates to drop.
    let mut sources: [Vec<(u32, u32)>; 3] = Default::default();
    for (u, v) in g.edges() {
        let (a, b) = (asns[u as usize], asns[v as usize]);
        let first = rng.random_range(0..3usize);
        let mut picks = vec![first];
        if rng.random_bool(0.25) {
            picks.push((first + rng.random_range(1..3usize)) % 3);
        }
        for s in picks {
            let pair = if rng.random_bool(0.5) { (a, b) } else { (b, a) };
            sources[s].push(pair);
        }
    }
    for s in &mut sources {
        s.shuffle(&mut rng);
    }

    let mut aslinks = String::from("# CAIDA-style AS links: tag, AS, AS\n");
    for &(a, b) in &sources[0] {
        let tag = if rng.random_bool(0.2) { 'I' } else { 'D' };
        let _ = writeln!(aslinks, "{tag}\t{a}\t{b}");
    }
    let mut dimes = String::from("src_as,dst_as,weeks_seen\n");
    for &(a, b) in &sources[1] {
        let _ = writeln!(dimes, "AS{a},AS{b},{}", rng.random_range(1..=52u32));
    }
    let mut edges = String::from("# plain AS edge list\n");
    for &(a, b) in &sources[2] {
        let _ = writeln!(edges, "{a} {b}");
    }
    let mut map = String::from("# internal_id as_number\n");
    for (i, asn) in asns.iter().enumerate() {
        let _ = writeln!(map, "{i} {asn}");
    }
    let max_cliques = cliques::max_cliques(&g).len();

    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    for (name, text) in [
        ("caida.aslinks", aslinks),
        ("dimes.csv", dimes),
        ("extra.edges", edges),
        ("truth.edges", asgraph::io::to_edge_list_string(&g)),
        ("truth.map", map),
    ] {
        std::fs::write(out.join(name), text).map_err(|e| format!("{name}: {e}"))?;
    }
    let mut json = Json::default();
    json.num("nodes", g.node_count())
        .num("edges", g.edge_count())
        .num("max_cliques", max_cliques)
        .num("records", sources.iter().map(Vec::len).sum::<usize>());
    Ok(json.finish())
}

/// Distinct AS numbers for nodes `0..n`, spread over the 32-bit space
/// and increasing with the node id. Ingest numbers ASes by AS number,
/// so an increasing map hands every seed the same dense graph; the
/// generator's ids follow its tiers, as real allocation roughly does
/// (the oldest transit networks hold the lowest numbers).
fn remap(n: usize, rng: &mut StdRng) -> Vec<u32> {
    let gap = u64::from(u32::MAX) / (n as u64 + 1);
    let mut next = 0u64;
    (0..n)
        .map(|_| {
            next += rng.random_range(1..=gap);
            u32::try_from(next).expect("n gaps of at most u32::MAX/(n+1) stay in range")
        })
        .collect()
}
