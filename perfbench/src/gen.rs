//! Seeded workload generation: the smoke-profile PLNN panel (d = 196,
//! C = 10), the region pools the workloads draw from, and the per-stream
//! request streams.
//!
//! The white-box oracle (`GroundTruthOracle`) is used here, in set-up only:
//! to dedupe regions and to turn `local_model(x)` into the interpretation a
//! solve would recover. It never reaches the service, which sees the model
//! through `PredictionApi` alone (`wrap::MeteredApi`).

use crate::drive::STREAMS;
use openapi_api::{GroundTruthOracle, PredictionApi};
use openapi_core::decision::{Interpretation, PairwiseCoreParams, RegionFingerprint};
use openapi_core::rng::derived_rng;
use openapi_core::sampler::sample_in_hypercube;
use openapi_data::SynthStyle;
use openapi_eval::panel::build_plnn_panel;
use openapi_eval::{ExperimentConfig, PanelModel, Profile};
use openapi_linalg::Vector;
use openapi_serve::SharedCacheConfig;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;
use std::sync::Arc;

/// Every request interprets class 0.
pub const CLASS: usize = 0;
/// The panel's scale profile: d = 196 (pooled 14×14 images), C = 10.
pub const PROFILE: Profile = Profile::Smoke;
/// Exactness gate on served interpretations, against the oracle's decision
/// features. A solve at this scale is typically 1e-9 to 1e-7 (L1) from the
/// oracle, so the median of a run must stay under `L1_BOUND`. About one
/// solve in a thousand lands further off (seen: up to 10% of the oracle's
/// L1 norm of 130-250): its samples straddle a region boundary and still
/// pass Algorithm 1's consistency check at its finite tolerance. So up to
/// `OFF_SHARE` of the replies (at least one) may exceed the bound; more
/// means solves are systematically wrong.
pub const L1_BOUND: f64 = 1e-5;
const OFF_SHARE: f64 = 1.0 / 32.0;
/// Half-width of the hypercube a panel instance is perturbed in to land in
/// a (usually) new region.
const REGION_EDGE: f64 = 0.1;
/// Half-width of the perturbation that draws further members of a region;
/// candidates that leave the region are discarded.
const MEMBER_EDGE: f64 = 1e-3;
/// Smallest class probability a pooled instance may have. Where the
/// softmax saturates, the log ratios Algorithm 1 solves on lose their
/// precision, and a solve can fit its probe within tolerance with
/// parameters far from the region's (seen: twice the oracle's L1 norm at a
/// smallest probability of 2e-9); such instances are kept out of the pools.
const MIN_PROB: f64 = 1e-5;
/// Candidates tried per region, and per member, before set-up gives up.
const MAX_TRIES: usize = 1000;
/// Requests per stream hashed into the determinism digest.
const DIGEST_REQUESTS: usize = 256;
/// Salts that keep the generator's random streams apart.
const POOL_SALT: u64 = 0x7001;
const STREAM_SALT: u64 = 0x5743;

/// The hidden model and the instances regions are drawn around.
pub struct Panel {
    pub model: Arc<PanelModel>,
    bases: Vec<Vector>,
}

impl Panel {
    /// Trains the smoke-profile PLNN on synthetic MNIST. Its seed is the
    /// profile's, so every workload seed runs against the same model.
    pub fn build() -> Self {
        let panel = build_plnn_panel(
            &ExperimentConfig::for_profile(PROFILE),
            SynthStyle::MnistLike,
        );
        let mut bases = panel.train.instances().to_vec();
        bases.extend_from_slice(panel.test.instances());
        Panel {
            model: Arc::new(panel.model),
            bases,
        }
    }
}

/// One region of the hidden model: instances inside it, and the
/// interpretation the oracle says a solve recovers there.
pub struct Region {
    pub members: Vec<Vector>,
    pub interpretation: Arc<Interpretation>,
    pub fingerprint: RegionFingerprint,
}

/// The membership tolerance of the service's cache (and so of its store).
pub fn membership_rtol() -> f64 {
    SharedCacheConfig::default().membership_rtol
}

/// `x`'s region interpretation for [`CLASS`], built from the oracle's
/// local linear model instead of an Algorithm-1 solve.
pub fn oracle_interpretation(model: &PanelModel, x: &Vector) -> Interpretation {
    let local = model.local_model(x.as_slice());
    let pairwise = (0..local.num_classes())
        .filter(|&c| c != CLASS)
        .map(|c| PairwiseCoreParams {
            c_prime: c,
            weights: local.pairwise_decision_features(CLASS, c),
            bias: local.pairwise_bias(CLASS, c),
        })
        .collect();
    Interpretation::from_pairwise(CLASS, pairwise)
        .expect("the panel has C ≥ 2 classes over one input dimension")
}

/// L1 distance from `served`'s decision features to the oracle's for the
/// region it was asked about.
pub fn l1_to_oracle(served: &Interpretation, region: &Region) -> Result<f64, String> {
    served
        .decision_features
        .l1_distance(&region.interpretation.decision_features)
        .map_err(|e| format!("decision features differ in shape: {e}"))
}

/// The exactness gate over the L1 distances of a run's served
/// interpretations to the oracle's (see [`L1_BOUND`]). Returns a summary.
pub fn exactness(l1s: Vec<f64>) -> Result<String, String> {
    let sorted = crate::drive::sorted(l1s);
    let n = sorted.len();
    let median = crate::drive::quantile(&sorted, 0.5);
    let worst = sorted.last().copied().unwrap_or(0.0);
    // NaN sorts last and counts as off.
    let off = sorted
        .iter()
        .filter(|&&l1| l1.is_nan() || l1 > L1_BOUND)
        .count();
    let allowed = ((n as f64 * OFF_SHARE) as usize).max(1);
    if median > L1_BOUND {
        return Err(format!(
            "served interpretations are a median {median:e} (L1) from the oracle's, over the {L1_BOUND:e} bound"
        ));
    }
    if off > allowed {
        return Err(format!(
            "{off} of {n} served interpretations are over {L1_BOUND:e} (L1) from the oracle's; at most {allowed} may be"
        ));
    }
    Ok(format!(
        "L1 to the oracle over {n} replies: median {median:e}, largest {worst:e}, {off} over {L1_BOUND:e} (at most {allowed} may be)"
    ))
}

/// The regions a workload draws from: `regions` for its traffic and
/// `fresh` ones no request ever touches (store misses, direct solves).
pub struct Pools {
    pub regions: Vec<Region>,
    pub fresh: Vec<Region>,
}

impl Pools {
    /// Draws `regions` regions of `members` instances each, then `fresh`
    /// one-instance regions. All are distinct by `region_id` and by the
    /// fingerprint of their oracle interpretation, so no region's
    /// parameters explain another's probes.
    pub fn generate(
        panel: &Panel,
        seed: u64,
        regions: usize,
        members: usize,
        fresh: usize,
    ) -> Result<Self, String> {
        let mut rng = derived_rng(seed, POOL_SALT);
        let mut ids = HashSet::new();
        let mut fingerprints = HashSet::new();
        let digits = SharedCacheConfig::default().fingerprint_digits;
        let mut draw = |members: usize| -> Result<Region, String> {
            for _ in 0..MAX_TRIES {
                let base = &panel.bases[rng.gen_range(0..panel.bases.len())];
                let x = sample_in_hypercube(base.as_slice(), REGION_EDGE, &mut rng);
                if panel
                    .model
                    .predict(x.as_slice())
                    .iter()
                    .any(|&p| p < MIN_PROB)
                {
                    continue;
                }
                let id = panel.model.region_id(x.as_slice());
                if !ids.insert(id.clone()) {
                    continue;
                }
                let interpretation = oracle_interpretation(&panel.model, &x);
                let fingerprint = interpretation.fingerprint(digits);
                if !fingerprints.insert(fingerprint) {
                    continue;
                }
                let mut list = vec![x];
                for _ in 0..MAX_TRIES {
                    if list.len() == members {
                        break;
                    }
                    let y = sample_in_hypercube(list[0].as_slice(), MEMBER_EDGE, &mut rng);
                    if panel.model.region_id(y.as_slice()) == id {
                        list.push(y);
                    }
                }
                if list.len() < members {
                    return Err(format!(
                        "found only {} of {members} instances in one region",
                        list.len()
                    ));
                }
                return Ok(Region {
                    members: list,
                    interpretation: Arc::new(interpretation),
                    fingerprint,
                });
            }
            Err(format!("no new region in {MAX_TRIES} candidates"))
        };
        let regions = (0..regions)
            .map(|_| draw(members))
            .collect::<Result<Vec<_>, _>>()?;
        let fresh = (0..fresh).map(|_| draw(1)).collect::<Result<Vec<_>, _>>()?;
        Ok(Pools { regions, fresh })
    }

    /// FNV-1a over the bits of every pooled instance, every seeded
    /// interpretation, and the first requests of each stream: set-ups with
    /// equal digests generated byte-identical inputs.
    pub fn digest(&self, seed: u64) -> u64 {
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |v: &Vector| {
            for x in v.as_slice() {
                for byte in x.to_bits().to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        };
        for region in self.regions.iter().chain(&self.fresh) {
            region.members.iter().for_each(&mut eat);
            eat(&region.interpretation.decision_features);
        }
        for s in 0..STREAMS {
            let mut stream = Stream::new(seed, s);
            for _ in 0..DIGEST_REQUESTS {
                eat(stream.next(&self.regions));
            }
        }
        hash
    }
}

/// One client stream's request sequence: a region drawn uniformly, then
/// one of its instances uniformly. Each stream has its own seed, so it
/// replays identically whatever the other streams did.
pub struct Stream {
    rng: StdRng,
}

impl Stream {
    pub fn new(seed: u64, stream: usize) -> Self {
        Stream {
            rng: derived_rng(seed ^ STREAM_SALT, stream as u64),
        }
    }

    pub fn next<'a>(&mut self, regions: &'a [Region]) -> &'a Vector {
        let region = &regions[self.rng.gen_range(0..regions.len())];
        &region.members[self.rng.gen_range(0..region.members.len())]
    }
}

/// The generator's self-test: regions are distinct by `region_id`, every
/// pooled instance lies in its region, and every oracle-seeded
/// interpretation explains its own probe at the cache's tolerance.
pub fn self_test(panel: &Panel, pools: &Pools) -> Result<String, String> {
    let rtol = membership_rtol();
    let mut ids = HashSet::new();
    let (mut explained, mut probes) = (0usize, 0usize);
    for region in pools.regions.iter().chain(&pools.fresh) {
        let id = panel.model.region_id(region.members[0].as_slice());
        if region
            .members
            .iter()
            .any(|x| panel.model.region_id(x.as_slice()) != id)
        {
            return Err("a pooled instance lies outside its region".into());
        }
        if !ids.insert(id) {
            return Err("two pooled regions share a region_id".into());
        }
        for x in &region.members {
            probes += 1;
            let probs = panel.model.predict(x.as_slice());
            explained += usize::from(region.interpretation.explains_probe(
                x,
                probs.as_slice(),
                rtol,
            ));
        }
    }
    if explained < probes {
        return Err(format!(
            "only {explained}/{probes} oracle-seeded interpretations explain their own probe"
        ));
    }
    Ok(format!(
        "self-test: {} regions distinct by region_id; {explained}/{probes} oracle-seeded interpretations explain their own probe at rtol {rtol:e}",
        ids.len()
    ))
}
