//! Fleet-scale mix populations: batch co-optimization + Pareto frontier.
//!
//! The paper's co-optimization takes *one* hand-weighted workload mix.  A
//! fleet operator has N tenants, each with their own mix, and asks a
//! capacity-planning question instead: **how few distinct configurations
//! serve all N tenants within x% of each tenant's own optimum?**
//!
//! [`CampaignSession::population`] answers it with the enumerate-then-prune
//! discipline:
//!
//! 1. **Normalise + dedup.**  Every tenant mix is validated and reduced to
//!    its canonical share vector ([`crate::campaign::canonical_shares`]);
//!    tenants that are scalar multiples of each other collapse onto one
//!    *unique* mix, so `[1,1,0,0]` and `[2,2,0,0]` are solved once.
//! 2. **Batch solve.**  Each unique mix goes through the existing
//!    blend + BINLP co-optimization ([`CampaignSession::co_optimize`]),
//!    fanned out over the worker pool.  The per-workload cost tables are
//!    materialised once and shared by every mix; with a warm store the
//!    whole stage reads small JSON entries only — zero guest instructions,
//!    zero trace walks (counter-asserted by the population benchmark).
//! 3. **Regret matrix by prediction.**  Each unique mix's *blended* cost
//!    table ([`crate::formulation::blend_cost_tables`]) prices every
//!    candidate configuration in closed form
//!    ([`crate::formulation::predict`]) — no extra trace walks.  A
//!    candidate *covers* a mix when its predicted runtime is within
//!    `tolerance_pct` of the mix's own optimum (a mix's own configuration
//!    has regret exactly 0, so full coverage always exists).
//! 4. **Dominance prune + greedy cover.**  Candidates whose coverage set
//!    is contained in another's are discarded; a greedy set cover over the
//!    survivors picks the frontier, and every tenant is assigned the
//!    frontier configuration with the least regret for its mix.
//!
//! Everything is deterministic — `threads = 1` and `threads = N` produce
//! byte-identical [`PopulationOutcome`]s — and the outcome is a store
//! artifact (`population` kind) keyed by the workload fingerprints, the
//! canonical tenant shares, the tolerance and the whole engine
//! configuration, so a repeated fleet question is a single JSON load.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::campaign::{
    canonical_shares, collect_indexed, run_indexed, CampaignSession, CoOutcome,
};
use crate::formulation::{blend_cost_tables, predict, Weights};
use crate::measure::CostTable;
use crate::optimizer::OptimizeError;

/// One tenant's named, un-normalised workload mix (one weight per workload
/// of the served suite, suite order).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MixProfile {
    /// Tenant name (reported back in [`TenantOutcome`]).
    pub name: String,
    /// Un-normalised mix weights, one per workload.
    pub weights: Vec<f64>,
}

/// On-disk format of an `experiments population --mixes FILE` profile file.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MixProfileFile {
    /// The tenant mixes, in population order.
    pub mixes: Vec<MixProfile>,
}

/// Deterministic splitmix64 step (std-only PRNG for `--random` mixes).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fewest store-missing mixes for which a population decodes every trace
/// once before its fan-out rather than streaming the stored traces once per
/// mix.  Measured by the population bench's `warm_novel_mixes/<k>` rows
/// (`Scale::Small`, 2 CPUs): decoding costs ≈ 49 ms once plus ≈ 9 ms per
/// mix, streaming ≈ 20 ms per mix, so they cross between 4 and 5 mixes;
/// `Scale::Medium` ties at 4 as well.  Decoded traces stay resident in the
/// session.
const DECODE_ONCE_MIN_MISSES: usize = 5;

/// Generate `n` deterministic tenant mixes over `workloads` workloads from
/// `seed`.  Weights are drawn from the small integer grid `0..=4` (re-drawn
/// when all-zero), which deliberately produces scalar-multiple collisions —
/// `[1,1,0,0]` vs `[2,2,0,0]` — so the ratio dedup is exercised by any
/// non-trivial population.
pub fn random_mixes(n: usize, workloads: usize, seed: u64) -> Vec<MixProfile> {
    assert!(workloads > 0, "cannot draw mixes over an empty suite");
    let mut state = seed;
    (0..n)
        .map(|i| {
            let weights = loop {
                let w: Vec<f64> =
                    (0..workloads).map(|_| (splitmix64(&mut state) % 5) as f64).collect();
                if w.iter().any(|&x| x > 0.0) {
                    break w;
                }
            };
            MixProfile { name: format!("mix-{i}"), weights }
        })
        .collect()
}

/// One tenant's slot in a [`PopulationOutcome`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TenantOutcome {
    /// Tenant name (from the [`MixProfile`]).
    pub name: String,
    /// Canonical normalised shares of the tenant's mix (suite order).
    pub shares: Vec<f64>,
    /// Index into [`PopulationOutcome::unique`] of the tenant's unique mix.
    pub unique_index: usize,
    /// Index into [`PopulationOutcome::frontier`] of the configuration
    /// serving this tenant.
    pub frontier_index: usize,
    /// Predicted runtime regret of the assigned configuration relative to
    /// the tenant's own optimum, in percent (0 = served by its own
    /// optimum; always ≤ the requested tolerance).
    pub regret_pct: f64,
}

/// One configuration of the frontier and the tenants it serves.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FrontierPoint {
    /// Selected decision variables (paper indices, ascending).
    pub selected: Vec<usize>,
    /// Human-readable descriptions of the selected changes.
    pub changes: Vec<String>,
    /// The full recommended configuration.
    pub recommended: leon_sim::LeonConfig,
    /// Synthesised LUT utilisation (percent of device, truncated).
    pub lut_pct: u32,
    /// Synthesised BRAM utilisation (percent of device, truncated).
    pub bram_pct: u32,
    /// Whether the configuration fits the device.
    pub fits: bool,
    /// Indices into [`PopulationOutcome::tenants`] served by this
    /// configuration, ascending.
    pub tenants: Vec<usize>,
    /// Worst regret among the served tenants, in percent.
    pub max_regret_pct: f64,
}

/// Result of a population solve: per-tenant assignments, the per-unique-mix
/// optima, and the pruned configuration frontier.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PopulationOutcome {
    /// Workload names, in suite order — the order mix weights apply in.
    pub workloads: Vec<String>,
    /// The runtime/resource objective weights every solve used.
    pub weights: Weights,
    /// The per-tenant regret tolerance the frontier honours, in percent.
    pub tolerance_pct: f64,
    /// Per-tenant assignments, in population order.
    pub tenants: Vec<TenantOutcome>,
    /// Per-unique-mix co-optimization outcomes, in first-appearance order.
    pub unique: Vec<CoOutcome>,
    /// The configurations serving the population, most tenants first at
    /// selection time (greedy cover order).
    pub frontier: Vec<FrontierPoint>,
    /// Distinct candidate configurations before dominance pruning.
    pub candidates: usize,
}

impl PopulationOutcome {
    /// Human-readable summary table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Population: {} tenants ({} unique mixes) within {}% of their own optima\n\
             frontier: {} configuration(s) (from {} candidate(s))\n",
            self.tenants.len(),
            self.unique.len(),
            self.tolerance_pct,
            self.frontier.len(),
            self.candidates,
        );
        for (i, point) in self.frontier.iter().enumerate() {
            out.push_str(&format!(
                "  config {i}: {:?} -> {} tenant(s), max regret {:.3}% (LUT {}%, BRAM {}%)\n",
                point.changes,
                point.tenants.len(),
                point.max_regret_pct,
                point.lut_pct,
                point.bram_pct,
            ));
        }
        out
    }
}

impl<'a> CampaignSession<'a> {
    /// Batch co-optimize a population of tenant mixes and reduce the per-mix
    /// optima to the Pareto frontier of configurations covering every tenant
    /// within `tolerance_pct` of its own optimum (see the module docs for
    /// the pipeline).
    ///
    /// With a store attached, the whole outcome is a `population` artifact:
    /// an unchanged (population, tolerance, artifact-set) triple is a single
    /// JSON load.  On a miss, the per-mix `co` artifacts are still reused,
    /// so re-asking with a different tolerance re-runs only the (closed-form)
    /// regret/prune stage.
    pub fn population(
        &self,
        profiles: &[MixProfile],
        tolerance_pct: f64,
    ) -> Result<PopulationOutcome, OptimizeError> {
        if profiles.is_empty() {
            return Err(OptimizeError::InvalidMix(
                "population must contain at least one mix".to_string(),
            ));
        }
        if !tolerance_pct.is_finite() || tolerance_pct < 0.0 {
            return Err(OptimizeError::InvalidMix(format!(
                "tolerance must be finite and non-negative, got {tolerance_pct}"
            )));
        }
        let tolerance_pct = tolerance_pct + 0.0; // canonicalise -0.0
        let engine = self.engine();

        // validate + canonicalise every tenant mix up front: nothing below
        // (keys included) ever sees a raw weight vector
        let mut tenant_shares: Vec<Vec<f64>> = Vec::with_capacity(profiles.len());
        for profile in profiles {
            if profile.weights.len() != self.len() {
                return Err(OptimizeError::InvalidMix(format!(
                    "mix `{}` has {} weights but the suite has {}",
                    profile.name,
                    profile.weights.len(),
                    self.len()
                )));
            }
            let shares = canonical_shares(&profile.weights).map_err(|e| match e {
                OptimizeError::InvalidMix(m) => {
                    OptimizeError::InvalidMix(format!("mix `{}`: {m}", profile.name))
                }
                other => other,
            })?;
            tenant_shares.push(shares);
        }

        // dedup by canonical share bits, first-appearance order
        let mut unique_of_bits: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut unique_profile: Vec<usize> = Vec::new(); // unique -> first profile index
        let mut tenant_unique: Vec<usize> = Vec::with_capacity(profiles.len());
        for (t, shares) in tenant_shares.iter().enumerate() {
            let bits: Vec<u64> = shares.iter().map(|s| s.to_bits()).collect();
            let next = unique_profile.len();
            let u = *unique_of_bits.entry(bits).or_insert_with(|| {
                unique_profile.push(t);
                next
            });
            tenant_unique.push(u);
        }

        let key = {
            let mut b = engine.objective_fields(engine.engine_key().str("population"));
            for fp in self.workload_fingerprints() {
                b = b.u64(*fp);
            }
            b = b.u64(tolerance_pct.to_bits());
            for (profile, shares) in profiles.iter().zip(&tenant_shares) {
                b = b.str(&profile.name);
                for share in shares {
                    b = b.u64(share.to_bits());
                }
            }
            b.finish()
        };
        self.pin_artifact("population", key);

        let (outcome, computed) = engine.lease_guarded(
            "population",
            key,
            || engine.try_load_json::<PopulationOutcome>("population", key),
            || -> Result<PopulationOutcome, OptimizeError> {
                let outcome = self.solve_population(
                    profiles,
                    &tenant_shares,
                    &unique_profile,
                    &tenant_unique,
                    tolerance_pct,
                )?;
                engine.persist_json("population", key, "population outcome", &outcome);
                Ok(outcome)
            },
        )?;
        self.bump_population(computed);
        Ok(outcome)
    }

    /// The population cold path: solve every unique mix, price every
    /// candidate against every unique mix, prune, cover, assign.
    fn solve_population(
        &self,
        profiles: &[MixProfile],
        tenant_shares: &[Vec<f64>],
        unique_profile: &[usize],
        tenant_unique: &[usize],
        tolerance_pct: f64,
    ) -> Result<PopulationOutcome, OptimizeError> {
        // one co-optimization per unique mix, fanned out over the pool.
        // co_optimize is store-backed, so already-solved mixes are JSON
        // loads and a brute-force per-mix loop lands on identical bytes
        let threads = self.engine().measurement().threads;
        // a mix that misses the store validates over every trace, streamed
        // unless resident: past the measured crossover, decode each trace
        // once up front instead of streaming it once per mix
        let misses = unique_profile.iter().filter(|&&p| !self.co_stored(&tenant_shares[p])).count();
        if misses >= DECODE_ONCE_MIN_MISSES {
            self.materialize_traces()?;
        }
        let solved = run_indexed(unique_profile.len(), threads, |u| {
            self.co_optimize(&profiles[unique_profile[u]].weights)
        });
        let unique: Vec<CoOutcome> = collect_indexed(solved)?;

        // blended cost table per unique mix — the closed-form pricing tool
        // for the regret matrix (no trace walks)
        let tables: Vec<&CostTable> =
            (0..self.len()).map(|i| self.table(i)).collect::<Result<_, _>>()?;
        let space = self.engine().space();
        let blended: Vec<CostTable> = unique_profile
            .iter()
            .map(|&p| {
                let weighted: Vec<(f64, &CostTable)> = tenant_shares[p]
                    .iter()
                    .copied()
                    .zip(tables.iter().copied())
                    .collect();
                blend_cost_tables(&weighted)
            })
            .collect();
        let own_runtime: Vec<f64> = unique
            .iter()
            .zip(&blended)
            .map(|(outcome, table)| predict(space, table, &outcome.selected).runtime_seconds)
            .collect();

        // candidate configurations: the distinct optima, first-appearance
        // order (many mixes share an optimum, so this is usually small)
        let mut candidate_of: HashMap<Vec<usize>, usize> = HashMap::new();
        let mut candidates: Vec<usize> = Vec::new(); // candidate -> unique index
        for (u, outcome) in unique.iter().enumerate() {
            let next = candidates.len();
            candidate_of.entry(outcome.selected.clone()).or_insert_with(|| {
                candidates.push(u);
                next
            });
        }

        // regret matrix + coverage sets: candidate c covers unique mix u
        // when its predicted runtime on u's blended table is within
        // tolerance of u's own optimum.  u's own candidate prices with the
        // exact same predict call as own_runtime[u], so regret is exactly
        // 0.0 there and full coverage always exists.
        let regret = |c: usize, u: usize| -> f64 {
            let selected = &unique[candidates[c]].selected;
            let runtime = predict(space, &blended[u], selected).runtime_seconds;
            (runtime - own_runtime[u]) / own_runtime[u] * 100.0
        };
        let covers: Vec<Vec<bool>> = (0..candidates.len())
            .map(|c| (0..unique.len()).map(|u| regret(c, u) <= tolerance_pct).collect())
            .collect();

        // dominance prune: drop any candidate whose coverage set is a
        // subset of another's (ties keep the earliest — determinism)
        let dominated = |c: usize| -> bool {
            (0..candidates.len()).any(|d| {
                if d == c {
                    return false;
                }
                let superset = covers[c]
                    .iter()
                    .zip(&covers[d])
                    .all(|(&mine, &theirs)| !mine || theirs);
                let equal = covers[c] == covers[d];
                superset && (!equal || d < c)
            })
        };
        let survivors: Vec<usize> = (0..candidates.len()).filter(|&c| !dominated(c)).collect();

        // greedy set cover over the survivors: most newly covered mixes
        // first, earliest survivor on ties
        let mut covered = vec![false; unique.len()];
        let mut chosen: Vec<usize> = Vec::new(); // candidate indices
        while covered.iter().any(|&c| !c) {
            let best = survivors
                .iter()
                .copied()
                .filter(|&c| !chosen.contains(&c))
                .max_by_key(|&c| {
                    let gain =
                        (0..unique.len()).filter(|&u| covers[c][u] && !covered[u]).count();
                    // max_by_key keeps the *last* max; invert the index so
                    // ties resolve to the earliest candidate
                    (gain, usize::MAX - c)
                })
                .expect("own-optimum candidates guarantee full coverage");
            if (0..unique.len()).filter(|&u| covers[best][u] && !covered[u]).count() == 0 {
                unreachable!("an uncovered mix is always covered by its own candidate");
            }
            for u in 0..unique.len() {
                if covers[best][u] {
                    covered[u] = true;
                }
            }
            chosen.push(best);
        }

        // assign every unique mix to its least-regret chosen configuration
        // (earliest on exact ties), then drop configurations nothing chose
        let assignment: Vec<usize> = (0..unique.len())
            .map(|u| {
                *chosen
                    .iter()
                    .filter(|&&c| covers[c][u])
                    .min_by(|&&a, &&b| {
                        regret(a, u)
                            .partial_cmp(&regret(b, u))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("the cover loop covered every mix")
            })
            .collect();
        let used: Vec<usize> =
            chosen.iter().copied().filter(|c| assignment.contains(c)).collect();
        let frontier_of: HashMap<usize, usize> =
            used.iter().enumerate().map(|(i, &c)| (c, i)).collect();

        let tenants: Vec<TenantOutcome> = profiles
            .iter()
            .enumerate()
            .map(|(t, profile)| {
                let u = tenant_unique[t];
                let c = assignment[u];
                TenantOutcome {
                    name: profile.name.clone(),
                    shares: tenant_shares[t].clone(),
                    unique_index: u,
                    frontier_index: frontier_of[&c],
                    regret_pct: regret(c, u),
                }
            })
            .collect();

        let frontier: Vec<FrontierPoint> = used
            .iter()
            .map(|&c| {
                let exemplar = &unique[candidates[c]];
                let served: Vec<usize> = tenants
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| frontier_of[&c] == t.frontier_index)
                    .map(|(i, _)| i)
                    .collect();
                let max_regret_pct = served
                    .iter()
                    .map(|&i| tenants[i].regret_pct)
                    .fold(0.0_f64, f64::max);
                FrontierPoint {
                    selected: exemplar.selected.clone(),
                    changes: exemplar.changes.clone(),
                    recommended: exemplar.recommended.clone(),
                    lut_pct: exemplar.lut_pct,
                    bram_pct: exemplar.bram_pct,
                    fits: exemplar.fits,
                    tenants: served,
                    max_regret_pct,
                }
            })
            .collect();

        Ok(PopulationOutcome {
            workloads: self.names().to_vec(),
            weights: unique[0].weights,
            tolerance_pct,
            tenants,
            unique,
            frontier,
            candidates: candidates.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_mixes_are_deterministic_and_never_all_zero() {
        let a = random_mixes(32, 4, 7);
        let b = random_mixes(32, 4, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|m| m.weights.iter().any(|&w| w > 0.0)));
        assert!(a.iter().all(|m| m.weights.len() == 4));
        assert_ne!(a, random_mixes(32, 4, 8), "seed must matter");
        // the small integer grid must actually produce ratio collisions
        // for dedup to chew on in any decent-sized population
        let mut ratios: Vec<Vec<u64>> = a
            .iter()
            .map(|m| {
                let total: f64 = m.weights.iter().sum();
                m.weights.iter().map(|w| (w / total).to_bits()).collect()
            })
            .collect();
        ratios.sort();
        ratios.dedup();
        assert!(ratios.len() < 32, "expected at least one scalar-multiple collision");
    }

    #[test]
    fn profile_files_round_trip() {
        let file = MixProfileFile { mixes: random_mixes(3, 4, 1) };
        let text = serde_json::to_string(&file).unwrap();
        let back: MixProfileFile = serde_json::from_str(&text).unwrap();
        assert_eq!(back, file);
    }
}
