//! The served output must be byte-identical to the one-shot CLI's: a
//! `simulate` job's `done.output` is exactly what `escalate simulate`
//! prints, and the streamed unit records carry the same numbers; a
//! `compress` job's is exactly what `escalate compress` prints, and a
//! `report` job's exactly what `escalate report NAME` prints.

use escalate_bench::experiments::{run_report, ReportOptions};
use escalate_bench::{render, run_model, ACCELERATOR_NAMES};
use escalate_core::pipeline::CompressionConfig;
use escalate_models::ModelProfile;
use escalate_obs::jsonl::{json_f64_field, json_string_field};
use escalate_serve::{start, submit, Request, ServeOptions};
use escalate_sim::SimConfig;

#[test]
fn served_simulate_is_bit_identical_to_the_one_shot_cli() {
    let model = "MobileNet";
    let seeds = 2u64;

    // The one-shot path: exactly what `escalate simulate MobileNet
    // --seeds 2` renders (cmd_simulate = run_model + render_simulate).
    let profile = ModelProfile::for_model(model).expect("model");
    let cfg = SimConfig::default();
    let expected_run = run_model(&profile, &cfg, seeds).expect("one-shot run");
    let expected = render::render_simulate(&expected_run, &cfg);

    // The served path.
    let handle = start(ServeOptions::default()).expect("start");
    let port = handle.port();
    let frames = submit(
        port,
        &Request::Simulate {
            model: model.into(),
            m: 6,
            seeds,
            schedule: "serial".into(),
        },
    )
    .expect("submit");
    let shutdown = submit(port, &Request::Shutdown);
    handle.join().expect("clean exit");
    assert!(shutdown.is_ok());

    let done = frames.last().expect("done frame");
    assert_eq!(
        json_string_field(done, "type").as_deref(),
        Some("done"),
        "{done}"
    );
    let output = json_string_field(done, "output").expect("output");
    assert_eq!(
        output, expected,
        "served output must be byte-identical to the one-shot table"
    );

    // The streamed unit records carry the same numbers, in design order.
    let units: Vec<&String> = frames
        .iter()
        .filter(|f| json_string_field(f, "type").as_deref() == Some("unit"))
        .collect();
    assert_eq!(units.len(), ACCELERATOR_NAMES.len());
    let runs = [
        &expected_run.eyeriss,
        &expected_run.scnn,
        &expected_run.sparten,
        &expected_run.escalate,
    ];
    for (unit, run) in units.iter().zip(runs) {
        assert_eq!(
            json_string_field(unit, "name").as_deref(),
            Some(run.name.as_str()),
            "{unit}"
        );
        assert_eq!(
            json_f64_field(unit, "mean_cycles")
                .expect("cycles")
                .to_bits(),
            run.cycles.to_bits(),
            "{unit}"
        );
        assert_eq!(
            json_f64_field(unit, "mean_energy_pj")
                .expect("energy")
                .to_bits(),
            run.energy_pj.to_bits(),
            "{unit}"
        );
    }
}

#[test]
fn served_compress_is_byte_identical_to_the_one_shot_cli() {
    let model = "MobileNet";
    // The one-shot text, from the uncached pipeline: what `escalate
    // compress MobileNet [--layers]` prints (the compression result at
    // the default M = 6, QAT 0, seed 42, rendered by `render_compress`).
    let profile = ModelProfile::for_model(model).expect("model");
    let cfg = CompressionConfig::default();
    let result = escalate_core::compress_model(&profile, &cfg).expect("one-shot compression");
    let expected =
        |layers| render::render_compress(model, profile.baseline_top1, cfg.m, &result, layers);

    let handle = start(ServeOptions::default()).expect("start");
    let port = handle.port();
    let served = |layers| {
        let frames = submit(
            port,
            &Request::Compress {
                model: model.into(),
                m: cfg.m,
                qat: cfg.qat_epochs,
                seed: cfg.seed,
                layers,
            },
        )
        .expect("submit");
        let done = frames.last().expect("done frame").clone();
        assert_eq!(
            json_string_field(&done, "type").as_deref(),
            Some("done"),
            "{done}"
        );
        json_string_field(&done, "output").expect("output")
    };
    let (brief, detailed) = (served(false), served(true));
    let shutdown = submit(port, &Request::Shutdown);
    handle.join().expect("clean exit");
    assert!(shutdown.is_ok());

    assert_eq!(brief, expected(false), "served summary differs");
    assert_eq!(detailed, expected(true), "served --layers report differs");
}

#[test]
fn served_report_is_byte_identical_to_the_one_shot_cli() {
    // `table4` and `fig13` are the two reports of the benchmark's served
    // mix.
    let names = ["table4", "fig13"];
    // The one-shot text: exactly what `escalate report NAME` prints.
    let expected: Vec<String> = names
        .iter()
        .map(|name| {
            let opts = ReportOptions::parse([name.to_string()]).expect("report line");
            let mut out = Vec::new();
            assert!(run_report(&opts, &mut out).expect("one-shot report"));
            String::from_utf8(out).expect("utf8")
        })
        .collect();

    let handle = start(ServeOptions::default()).expect("start");
    let port = handle.port();
    let served: Vec<Vec<String>> = names
        .iter()
        .map(|name| {
            submit(
                port,
                &Request::Report {
                    experiment: name.to_string(),
                },
            )
            .expect("submit")
        })
        .collect();
    let shutdown = submit(port, &Request::Shutdown);
    handle.join().expect("clean exit");
    assert!(shutdown.is_ok());

    for ((name, frames), expected) in names.iter().zip(&served).zip(&expected) {
        let done = frames.last().expect("done frame");
        assert_eq!(
            json_string_field(done, "type").as_deref(),
            Some("done"),
            "{done}"
        );
        assert_eq!(
            json_string_field(done, "output").as_deref(),
            Some(expected.as_str()),
            "served {name} differs from `escalate report {name}`"
        );
        let units: Vec<&String> = frames
            .iter()
            .filter(|f| json_string_field(f, "type").as_deref() == Some("unit"))
            .collect();
        assert_eq!(units.len(), 1, "one unit per experiment: {frames:?}");
        let key = format!("report/{name}");
        assert_eq!(
            json_string_field(units[0], "key").as_deref(),
            Some(key.as_str()),
            "{}",
            units[0]
        );
        assert_eq!(
            json_string_field(units[0], "schema").as_deref(),
            Some("escalate-run-manifest/v1"),
            "{}",
            units[0]
        );
    }
}
