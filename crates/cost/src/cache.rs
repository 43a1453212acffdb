//! An interned per-step cost cache: repeated costing of the same step is a
//! hash lookup after the first touch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use p2_collectives::{Collective, FxHashMap};
use p2_synthesis::LoweredStep;
use p2_topology::SystemTopology;

use crate::model::{CostModel, StepCost};

/// The coarse class of a step: the outermost hierarchy level it crosses, its
/// collective and its size. Steps of one class cost alike; a class does not
/// identify a step, so [`CachedCostModel`] keys its entries by the exact
/// layout instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StepClass {
    /// The outermost hierarchy level any group of the step crosses (`None`
    /// when every group is local to a single device).
    pub level: Option<usize>,
    /// The collective the step performs.
    pub collective: Collective,
    /// Number of concurrent groups.
    pub groups: usize,
    /// Size class: the largest group of the step.
    pub max_group_size: usize,
}

impl StepClass {
    /// Computes the class of a step on a system.
    pub fn of(system: &SystemTopology, step: &LoweredStep) -> Self {
        let level = step
            .groups
            .iter()
            .filter_map(|g| system.span_level(&g.devices))
            .min();
        StepClass {
            level,
            collective: step.collective,
            groups: step.groups.len(),
            max_group_size: step.max_group_size(),
        }
    }
}

/// Hit/miss counters of a [`CachedCostModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Step times answered from the cache.
    pub hits: u64,
    /// Step times computed by the inner model.
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A caching decorator around any [`CostModel`]: step times are interned by
/// the step's exact layout ([`LoweredStep::layout_hash`], confirmed by
/// [`LoweredStep::same_layout`]), so repeatedly costing the same step is
/// O(1) after the first touch.
///
/// Programs of one placement reuse a small set of lowered steps (the same
/// ReduceScatter over the same reduction groups appears in most programs),
/// which is what makes the intern table effective for callers that cost
/// whole [`LoweredProgram`](p2_synthesis::LoweredProgram)s one at a time.
/// (The pipeline itself predicts each distinct search-DAG step once through
/// [`StepTimes`](crate::StepTimes) and needs no cache.)
///
/// A cached value is only returned for a step whose layout is identical bit
/// for bit — and whose prediction is therefore identical — so caching never
/// changes results; `tests/proptest_cost.rs` pins this bit for bit. Hits
/// hash the step and compare the stored steps against it in place, so only
/// misses pay for cloning the step into the table.
#[derive(Debug)]
pub struct CachedCostModel {
    inner: Arc<dyn CostModel>,
    name: String,
    /// The intern table: layout hash → interned (step, seconds) entries.
    /// Buckets hold more than one entry only on a hash collision.
    cache: Mutex<FxHashMap<u64, Vec<(LoweredStep, f64)>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CachedCostModel {
    /// Wraps `inner` with an empty intern table.
    pub fn new(inner: Arc<dyn CostModel>) -> Self {
        let name = format!("cached({})", inner.name());
        CachedCostModel {
            inner,
            name,
            cache: Mutex::new(FxHashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &Arc<dyn CostModel> {
        &self.inner
    }

    /// Hit/miss counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of interned step entries.
    pub fn entries(&self) -> usize {
        self.cache
            .lock()
            .expect("cost cache poisoned")
            .values()
            .map(Vec::len)
            .sum()
    }
}

impl CostModel for CachedCostModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn system(&self) -> &SystemTopology {
        self.inner.system()
    }

    fn bytes_per_device(&self) -> f64 {
        self.inner.bytes_per_device()
    }

    /// Per-group breakdowns are not interned (only totals are); delegates.
    fn step_cost(&self, step: &LoweredStep) -> StepCost {
        self.inner.step_cost(step)
    }

    fn step_time(&self, step: &LoweredStep) -> f64 {
        let hash = step.layout_hash();
        {
            let cache = self.cache.lock().expect("cost cache poisoned");
            if let Some(&(_, seconds)) = cache
                .get(&hash)
                .and_then(|bucket| bucket.iter().find(|(stored, _)| stored.same_layout(step)))
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return seconds;
            }
        }
        // Compute outside the lock; concurrent misses on the same step would
        // compute the same value, so the re-check below only avoids storing
        // a duplicate entry.
        let seconds = self.inner.step_time(step);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut cache = self.cache.lock().expect("cost cache poisoned");
        let bucket = cache.entry(hash).or_default();
        if !bucket.iter().any(|(stored, _)| stored.same_layout(step)) {
            bucket.push((step.clone(), seconds));
        }
        seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlphaBetaModel, NcclAlgo};
    use p2_placement::ParallelismMatrix;
    use p2_synthesis::{baseline_allreduce, HierarchyKind, Synthesizer};
    use p2_topology::presets;

    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

    fn cached() -> CachedCostModel {
        CachedCostModel::new(Arc::new(
            AlphaBetaModel::new(presets::a100_system(2), NcclAlgo::Ring, GIB).unwrap(),
        ))
    }

    #[test]
    fn repeated_steps_hit_after_first_touch() {
        let model = cached();
        let matrix = ParallelismMatrix::new(vec![vec![2, 16]], vec![2, 16], vec![32]).unwrap();
        let program = baseline_allreduce(&matrix, &[0]).unwrap();
        let first = model.program_time(&program);
        assert_eq!(model.stats(), CacheStats { hits: 0, misses: 1 });
        for _ in 0..10 {
            assert_eq!(model.program_time(&program), first);
        }
        assert_eq!(
            model.stats(),
            CacheStats {
                hits: 10,
                misses: 1
            }
        );
        assert_eq!(model.entries(), 1);
    }

    #[test]
    fn cached_times_match_the_inner_model_bit_for_bit() {
        let model = cached();
        let matrix =
            ParallelismMatrix::new(vec![vec![2, 4], vec![1, 4]], vec![2, 16], vec![8, 4]).unwrap();
        let synth = Synthesizer::new(matrix, vec![0], HierarchyKind::ReductionAxes).unwrap();
        let programs = synth.synthesize(4).programs;
        for p in &programs {
            let lowered = synth.lower(p).unwrap();
            // Twice: once filling, once hitting — both must equal the inner.
            let inner_time = model.inner().program_time(&lowered);
            assert_eq!(model.program_time(&lowered), inner_time);
            assert_eq!(model.program_time(&lowered), inner_time);
        }
        let stats = model.stats();
        assert!(stats.hits > stats.misses, "expected mostly hits: {stats:?}");
    }

    #[test]
    fn class_captures_level_and_size() {
        let sys = presets::a100_system(2);
        let matrix = ParallelismMatrix::new(vec![vec![2, 16]], vec![2, 16], vec![32]).unwrap();
        let program = baseline_allreduce(&matrix, &[0]).unwrap();
        let class = StepClass::of(&sys, &program.steps[0]);
        assert_eq!(class.level, Some(0)); // crosses the node level
        assert_eq!(class.collective, Collective::AllReduce);
        assert_eq!(class.max_group_size, 32);
    }
}
