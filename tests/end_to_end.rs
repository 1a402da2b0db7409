//! End-to-end integration: dataset generation → featurization → training
//! → model-guided search, spanning every crate in the workspace.

use dlcm::datagen::{prepare, BuildConfig, Dataset, DatasetConfig, ParallelDatasetBuilder};
use dlcm::eval::{ModelEvaluator, ParallelEvaluator};
use dlcm::machine::{Machine, Measurement};
use dlcm::model::{
    evaluate, metrics, train, CostModel, CostModelConfig, Featurizer, FeaturizerConfig, TrainConfig,
};
use dlcm::search::{BeamSearch, SearchSpace};

fn small_dataset(seed: u64) -> Dataset {
    ParallelDatasetBuilder::new(BuildConfig::new(DatasetConfig {
        num_programs: 16,
        schedules_per_program: 24,
        seed,
        ..DatasetConfig::tiny(seed)
    }))
    .generate(&Measurement::exact(Machine))
    .0
}

fn tiny_model_cfg() -> CostModelConfig {
    CostModelConfig {
        input_dim: FeaturizerConfig::default().vector_width(),
        embed_widths: vec![96, 48],
        merge_hidden: 48,
        regress_widths: vec![48],
        dropout: 0.0,
    }
}

#[test]
fn trained_model_ranks_held_out_schedules_of_seen_programs() {
    // The capability the search actually relies on (§6, Figure 7): ranking
    // candidate schedules of a program. Train on 150 random schedules of
    // one realistic program, evaluate rank correlation on 50 held-out
    // schedules. (Cross-program transfer to *unseen* programs requires the
    // paper's data scale — see EXPERIMENTS.md.)
    use dlcm::datagen::{ProgramGenConfig, ProgramGenerator, ScheduleGenConfig, ScheduleGenerator};
    use dlcm::model::LabeledFeatures;
    use rand::SeedableRng;
    let progen = ProgramGenerator::new(ProgramGenConfig::default());
    let schedgen = ScheduleGenerator::new(ScheduleGenConfig::default());
    // Seed chosen to yield a multi-computation program with a rich
    // schedule space (>= 200 distinct schedules) and a learnable
    // speedup distribution.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let program = progen.generate(&mut rng, "p");
    let (pool, train_n, epochs) = (200, 150, 120);
    let schedules = schedgen.generate_distinct(&program, pool, &mut rng);
    assert!(
        schedules.len() >= pool,
        "schedule space too small for the ranking property: {}",
        schedules.len()
    );
    let harness = Measurement::exact(Machine);
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let samples: Vec<LabeledFeatures> = schedules
        .iter()
        .map(|s| LabeledFeatures {
            feats: featurizer.featurize(&program, s),
            target: harness.speedup(&program, s, 0).expect("legal schedule"),
            group: 0,
        })
        .collect();
    let (train_set, test_set) = samples.split_at(train_n);

    let mut model = CostModel::new(CostModelConfig::fast(featurizer.config().vector_width()), 0);
    let (before, _) = evaluate(&model, test_set);
    train(
        &mut model,
        train_set,
        &[],
        &TrainConfig {
            epochs,
            batch_size: 32,
            max_lr: 2e-3,
            seed: 0,
            eval_every: usize::MAX,
            ..TrainConfig::default()
        },
    );
    let (after, preds) = evaluate(&model, test_set);
    assert!(
        after < before,
        "training must improve held-out MAPE: {before:.3} -> {after:.3}"
    );
    let targets: Vec<f64> = test_set.iter().map(|s| s.target).collect();
    let rho = metrics::spearman(&targets, &preds);
    assert!(
        rho > 0.5,
        "trained model should rank held-out schedules of a seen program: rho = {rho:.3}"
    );
}

#[test]
fn model_guided_beam_search_runs_on_unseen_program() {
    // Train briefly, then drive beam search on a benchmark the model has
    // never seen; the result must be legal and the model path must do far
    // fewer simulated-seconds of work than the execution path.
    let dataset = small_dataset(6);
    let split = dataset.split(0);
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let train_set = prepare(&featurizer, &dataset, &split.train);
    let mut model = CostModel::new(tiny_model_cfg(), 1);
    train(
        &mut model,
        &train_set,
        &[],
        &TrainConfig {
            epochs: 6,
            batch_size: 16,
            ..TrainConfig::default()
        },
    );

    let program = dlcm::benchsuite::heat2d(0.1);
    let space = SearchSpace {
        tile_sizes: vec![16, 32],
        unroll_factors: vec![4],
    };
    let beam = 3;

    let mut model_ev = ModelEvaluator::new(&model, featurizer.clone());
    let bsm = BeamSearch::new(beam, space.clone()).search(&program, &mut model_ev);
    assert!(dlcm::ir::apply_schedule(&program, &bsm.schedule).is_ok());

    let mut exec_ev = ParallelEvaluator::new(Measurement::exact(Machine), 0, 1);
    let bse = BeamSearch::new(beam, space).search(&program, &mut exec_ev);
    assert!(
        bse.stats.search_time > bsm.stats.search_time,
        "execution search ({:.1}s simulated) should cost more than model search ({:.4}s)",
        bse.stats.search_time,
        bsm.stats.search_time
    );
    // The ground-truth search finds a schedule at least as good as the
    // model-guided one when both are measured.
    let harness = Measurement::exact(Machine);
    let t = |s: &dlcm::ir::Schedule| harness.measure_schedule(&program, s, 0).unwrap();
    assert!(t(&bse.schedule) <= t(&bsm.schedule) * 1.001);
}

#[test]
fn halide_baseline_drives_beam_search_through_unified_api() {
    // The §6 "Halide autoscheduler" column: the baseline model implements
    // the same object-safe Evaluator contract as the execution and
    // cost-model evaluators, so beam search is oblivious to the backend.
    use dlcm::baseline::HalideModel;
    use dlcm::eval::Evaluator;

    let program = dlcm::benchsuite::cvtcolor(0.1);
    let mut ev: Box<dyn Evaluator> = Box::new(HalideModel::new(0));
    let result = BeamSearch::new(
        2,
        SearchSpace {
            tile_sizes: vec![32],
            unroll_factors: vec![4],
        },
    )
    .search(&program, &mut *ev);
    assert!(dlcm::ir::apply_schedule(&program, &result.schedule).is_ok());
    assert!(result.stats.num_evals > 0);
    assert_eq!(result.stats.num_evals, ev.stats().num_evals);
}

#[test]
fn sharded_corpus_streams_into_training() {
    // The corpus-scale path end to end: parallel sharded generation →
    // manifest-verified reload → streamed minibatch training — and the
    // streamed model must match training from the equivalent in-memory
    // dataset exactly (same batches, same seeds, same trajectory).
    use dlcm::datagen::{ShardBatches, ShardedDataset};
    use dlcm::model::train_stream;

    let dir = std::env::temp_dir().join("dlcm_e2e_corpus");
    let _ = std::fs::remove_dir_all(&dir);
    let builder = ParallelDatasetBuilder::new(BuildConfig {
        threads: 2,
        num_shards: 3,
        ..BuildConfig::new(DatasetConfig {
            num_programs: 12,
            schedules_per_program: 10,
            ..DatasetConfig::tiny(8)
        })
    });
    let harness = Measurement::exact(Machine);
    let (manifest, stats) = builder.write_corpus(&harness, &dir).unwrap();
    assert_eq!(manifest.total_programs, 12);
    assert_eq!(manifest.total_points, stats.num_points);

    let sharded = ShardedDataset::open(&dir).unwrap();
    sharded.verify().unwrap();
    let dataset = sharded.load_dataset().unwrap();
    assert_eq!(dataset.programs.len(), 12);
    assert_eq!(dataset.len(), manifest.total_points);

    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 8,
        seed: 4,
        ..TrainConfig::default()
    };
    let source = ShardBatches::open(&dir, featurizer.clone(), cfg.batch_size, 2).unwrap();
    assert_eq!(source.num_points(), dataset.len());

    let mut streamed = CostModel::new(tiny_model_cfg(), 2);
    let report = train_stream(&mut streamed, &source, &[], &cfg);
    assert!(report.epochs.len() == 3 && report.epochs[2].train_mape.is_finite());

    let idx: Vec<usize> = (0..dataset.len()).collect();
    let in_memory_set = prepare(&featurizer, &dataset, &idx);
    let mut in_memory = CostModel::new(tiny_model_cfg(), 2);
    let report2 = train(&mut in_memory, &in_memory_set, &[], &cfg);
    for (a, b) in report.epochs.iter().zip(&report2.epochs) {
        assert_eq!(
            a.train_mape, b.train_mape,
            "streamed != in-memory trajectory"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
