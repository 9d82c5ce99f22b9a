//! Command handlers for the `escalate` CLI.

use crate::args::{Grammar, ParsedArgs};
use escalate_bench::args::{ArgError, Options};
use escalate_bench::jobs::CompressPlan;
use escalate_bench::plan::TableSink;
use escalate_bench::{input_seeds, run_model, workload_cached};
use escalate_core::artifact::{read_artifacts, write_artifacts, LayerArtifact};
use escalate_core::pipeline::CompressionConfig;
use escalate_models::ModelProfile;
use escalate_sim::{ScheduleKind, SimConfig};
use std::io::Write;

/// CLI-level error: argument problems or pipeline failures.
#[derive(Debug)]
pub enum CliError {
    /// No subcommand given.
    MissingCommand,
    /// The subcommand is not in the command table.
    UnknownCommand(String),
    /// Argument parsing/validation failed.
    Args(ArgError),
    /// `report`'s own parser rejected its tokens; the payload is the
    /// full message.
    Report(String),
    /// A model spec did not resolve (unknown name, unreadable network
    /// file, or a bad generator spec); the payload is the full message.
    UnknownModel(String),
    /// The compression/simulation pipeline failed.
    Pipeline(String),
    /// `escalate report --check` found golden drift (the check report
    /// has already been written to the output).
    Drift,
    /// `escalate submit` got a terminal `error` or `rejected` frame (the
    /// frames have already been written to the output); the payload is
    /// the frame type.
    Refused(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::MissingCommand => write!(f, "no command given (try `escalate help`)"),
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command {c:?} (try `escalate help`)")
            }
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Report(msg) => write!(f, "{msg}"),
            CliError::UnknownModel(m) => write!(f, "{m}"),
            CliError::Pipeline(e) => write!(f, "pipeline failure: {e}"),
            CliError::Drift => write!(f, "golden drift detected (see the DRIFT lines above)"),
            CliError::Refused(kind) => {
                write!(f, "the daemon's last frame is {kind:?} (printed above)")
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Pipeline(format!("cannot write output: {e}"))
    }
}

/// Usage text.
pub const USAGE: &str = "\
escalate — reproduction of the ESCALATE sparse-CNN accelerator (MICRO 2021)

USAGE:
    escalate <COMMAND> [ARGS] [OPTIONS]

COMMANDS:
    models                         list the evaluated models and their profiles
    network <SPEC>                 print (or save) a model as an editable
                                   escalate-network/v1 description file
        --out <FILE>   write the description instead of printing it
    compress <MODEL>               run the compression pipeline (Table 1 row)
        --m <N>        basis kernels (default 6)
        --qat <N>      QAT epochs per layer (default 0)
        --seed <N>     RNG seed (default 42)
        --layers       print per-layer detail
        --out <FILE>   save the compressed artifacts (.esca)
    simulate <MODEL>               compare all four accelerators
        --network <FILE|SPEC>  simulate a custom network instead of a zoo
                       model: an escalate-network/v1 file (@FILE or a bare
                       path) or a generator spec (gen:NAME:key=value,...)
        --schedule <S> layer schedule: serial (default; the paper's
                       layer-at-a-time fold) or pipelined (layers split
                       into PE-partitioned stages; adds a pipeline
                       stage/interval/stall section to the table)
        --m <N>        basis kernels (default 6)
        --seeds <N>    input samples to average
                       (default $ESCALATE_SEEDS or 10)
        --threads <N>  host threads (default $ESCALATE_THREADS or all
                       cores; 1 forces sequential; results are identical)
        --metrics <FILE>  record counters/timings during the run and
                       write a JSON run manifest (see DESIGN.md)
    sweep [MODEL ...]              sample the accelerator design space
                                   (M, PEs, bus, buffers) and stream one
                                   JSONL record per point, then print the
                                   energy x cycles x area Pareto frontier
                                   per network (default: all six models)
                                   MODEL may be any network spec
                                   (zoo name, @FILE, or gen:NAME)
        --schedule <S> serial (default) or pipelined, as for simulate
        --samples <N>  design points per network (default 8)
        --seed <N>     master sample seed (default 42)
        --seeds <N>    input samples averaged per point (default 2)
        --m <A..B>     inclusive M range (default 4..8)
        --pe <A..B>    PE-count range; powers of two sampled (default 8..64)
        --out <FILE>   JSONL stream (default sweep.jsonl); re-running the
                       same sweep resumes it — recorded points are skipped
        --sampler <S>  design-point sampler: uniform (default) or halton
                       (low-discrepancy; covers small grids evenly)
        --check <FILE>   fail on any frontier drift vs a golden file
        --update <FILE>  rewrite the frontier golden file
        --metrics <FILE> write a JSON counter snapshot after the run
                       (derived-cache hits, plan reuses, frontier cost)
        --threads <N>  host threads (as for simulate)
                       (the fixed-MAC-budget M sweep is `report fig12`)
    characterize <MODEL>           compute/traffic structure per layer
        --m <N>        basis kernels for the C/M bound (default 6)
    report [NAME ...] [-- ARGS]    drive the experiment registry (tables,
                                   figures, ablations); ARGS after `--`
                                   go to the experiments verbatim
                                   (e.g. report fig11 -- ResNet18)
        --list         enumerate the registered experiments
        --all          every registered experiment
        --json         emit escalate-report/v1 JSON instead of text
        --check        diff against the results/ golden corpus
        --update       regenerate the results/ golden corpus
        --out <DIR>    one file per experiment instead of stdout
        --results <DIR> golden corpus location (default results/)
    serve                          run the batching simulation daemon
                                   (line-JSON over TCP on 127.0.0.1;
                                   blocks until a shutdown request)
        --port <N>     port to bind (default 0 = ephemeral)
        --workers <N>  job worker threads (default 2)
        --queue <N>    job queue capacity; a full queue answers
                       rejected + retry_after_ms (default 8)
        --cache <N>    artifact cache capacity override (entries)
        --port-file <FILE>  write the bound port here (how scripts
                       find an ephemerally-bound daemon)
    submit <VERB> [ARG]            send one request to a running daemon
                                   and print its response frames; VERB is
                                   simulate|compress|report (ARG = model
                                   or experiment) or metrics|ping|shutdown
        --port <N>     daemon port, or --port-file <FILE> to read it
        --m/--seeds/--qat/--seed/--layers/--schedule
                       as for the one-shot verbs
    loadgen                        drive an in-process daemon with a
                                   seeded request mix and report latency
        --jobs <N>     requests to send (default 24)
        --seed <N>     schedule seed (default 42)
        --workers <N>  daemon workers (default 2)
        --queue <N>    daemon queue capacity (default 4)
    inspect <FILE>                 summarize a saved .esca artifact
    validate <MODEL>               cross-check the three simulator
                                   fidelities on one layer
        --layer <NAME> layer to validate (default: widest layer)
    help                           show this text

MODELS: VGG16, ResNet18, ResNet152, MobileNetV2 (CIFAR-10);
        ResNet50, MobileNet (ImageNet)
        Anywhere a MODEL is expected, @FILE loads an escalate-network/v1
        description and gen:NAME[:key=value,...] generates one
        (generators: grouped, dilated, bottleneck, vit)";

/// Resolves one model spec — a zoo name, an `@FILE` network description,
/// or a `gen:NAME[:key=value,...]` generator — through the shared
/// [`escalate_models::resolve`] entry every harness uses.
fn profile(spec: &str) -> Result<ModelProfile, CliError> {
    escalate_models::resolve(spec).map_err(|e| CliError::UnknownModel(e.to_string()))
}

/// The model spec of a command: `--network SPEC` when given (a network
/// description file reads most naturally as `--network @FILE`, but the
/// `@` is optional there — a bare path works too), else the first
/// positional argument.
fn model_arg(args: &Options) -> Result<ModelProfile, CliError> {
    if let Some(spec) = args.options.get("network") {
        let spec = spec.clone();
        // `--network model.network` means the file, not a zoo name.
        let spec = if spec.starts_with('@') || spec.starts_with("gen:") || profile(&spec).is_ok() {
            spec
        } else {
            format!("@{spec}")
        };
        return profile(&spec);
    }
    let name = args
        .positional
        .first()
        .ok_or(CliError::Args(ArgError::BadValue {
            option: "MODEL".into(),
            value: "<missing>".into(),
            expected: "a model name, @FILE, or gen:NAME spec",
        }))?;
    profile(name)
}

/// Parses a `--schedule` option into a [`ScheduleKind`] (default serial).
fn schedule_arg(args: &Options) -> Result<ScheduleKind, CliError> {
    match args.options.get("schedule") {
        None => Ok(ScheduleKind::default()),
        Some(v) => ScheduleKind::parse(v).map_err(|msg| {
            CliError::Args(ArgError::BadValue {
                option: "schedule".into(),
                value: msg,
                expected: "serial or pipelined",
            })
        }),
    }
}

/// One subcommand: its name, its option grammar and its handler.
pub struct Command {
    /// The name the command line uses.
    pub name: &'static str,
    /// How the tokens after the name parse.
    pub grammar: Grammar,
    run: fn(&Options, &mut dyn Write) -> Result<(), CliError>,
}

const fn command(
    name: &'static str,
    values: &'static [&'static str],
    flags: &'static [&'static str],
    run: fn(&Options, &mut dyn Write) -> Result<(), CliError>,
) -> Command {
    Command {
        name,
        grammar: Grammar::Options { values, flags },
        run,
    }
}

/// Every subcommand, in USAGE order: its valued options, then its flags.
/// Each option's kind is declared here and nowhere else.
pub const COMMANDS: &[Command] = &[
    command("models", &[], &[], cmd_models),
    command("network", &["out"], &[], cmd_network),
    command(
        "compress",
        &["m", "qat", "seed", "out"],
        &["layers"],
        cmd_compress,
    ),
    command(
        "simulate",
        &["network", "schedule", "m", "seeds", "threads", "metrics"],
        &[],
        cmd_simulate,
    ),
    command(
        "sweep",
        &[
            "schedule", "samples", "seed", "seeds", "m", "pe", "out", "sampler", "check", "update",
            "metrics", "threads",
        ],
        &[],
        cmd_sweep,
    ),
    command("characterize", &["m"], &[], cmd_characterize),
    // `report` has its own grammar, `ReportOptions::parse`.
    Command {
        name: "report",
        grammar: Grammar::PassThrough,
        run: cmd_report,
    },
    command(
        "serve",
        &["port", "workers", "queue", "cache", "port-file"],
        &[],
        cmd_serve,
    ),
    command(
        "submit",
        &["port", "port-file", "m", "seeds", "qat", "seed", "schedule"],
        &["layers"],
        cmd_submit,
    ),
    command(
        "loadgen",
        &["jobs", "seed", "workers", "queue"],
        &[],
        cmd_loadgen,
    ),
    command("inspect", &[], &[], cmd_inspect),
    command("validate", &["layer"], &[], cmd_validate),
    command("help", &[], &[], cmd_help),
    command("--help", &[], &[], cmd_help),
];

/// Looks a subcommand up by name.
pub fn find(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// Runs a parsed command line, writing its output to `out` as it is
/// produced.
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message on any failure.
pub fn dispatch(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let command =
        find(args.command).ok_or_else(|| CliError::UnknownCommand(args.command.into()))?;
    (command.run)(&args.args, out)
}

fn cmd_help(_args: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    writeln!(out, "{USAGE}")?;
    Ok(())
}

fn cmd_report(args: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    use escalate_bench::experiments::{run_report, ReportOptions};
    let opts = ReportOptions::parse(args.positional.iter().cloned()).map_err(CliError::Report)?;
    if run_report(&opts, out).map_err(|e| CliError::Pipeline(e.to_string()))? {
        Ok(())
    } else {
        Err(CliError::Drift)
    }
}

fn cmd_models(_args: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    writeln!(
        out,
        "{:<12} {:<10} {:>8} {:>8} {:>9} {:>10}",
        "model", "dataset", "conv(MB)", "layers", "top-1(%)", "target spar"
    )?;
    for p in ModelProfile::all() {
        let m = p.model();
        writeln!(
            out,
            "{:<12} {:<10} {:>8.2} {:>8} {:>9.2} {:>9.1}%",
            p.name,
            p.dataset.to_string(),
            m.conv_size_mb_fp32(),
            m.conv_layers().count(),
            p.baseline_top1,
            p.coeff_sparsity * 100.0,
        )?;
    }
    Ok(())
}

/// `escalate network SPEC [--out FILE]`: resolve any model spec and emit
/// its canonical `escalate-network/v1` description — how a generated or
/// zoo network becomes an editable `.network` file.
fn cmd_network(args: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let p = model_arg(args)?;
    let model = p.model();
    let text = model
        .to_description()
        .map_err(|e| CliError::Pipeline(e.to_string()))?;
    match args.options.get("out") {
        Some(path) => {
            std::fs::write(path, &text)
                .map_err(|e| CliError::Pipeline(format!("cannot write {path}: {e}")))?;
            writeln!(
                out,
                "{}: {} layer(s) -> {path}",
                p.name,
                model.layers().len()
            )?;
        }
        None => out.write_all(text.as_bytes())?,
    }
    Ok(())
}

/// `--m` (default 6), rejected at flag parsing unless in `1..=MAX_M`.
fn m_arg(args: &Options) -> Result<usize, CliError> {
    let m = args.get_or("m", 6usize)?;
    escalate_sim::check_basis_count(m).map_err(|_| {
        CliError::Args(ArgError::BadValue {
            option: "m".into(),
            value: m.to_string(),
            expected: "a basis count from 1 to 1024",
        })
    })
}

fn cmd_compress(args: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let p = model_arg(args)?;
    let cfg = CompressionConfig {
        m: m_arg(args)?,
        qat_epochs: args.get_or("qat", 0usize)?,
        seed: args.get_or("seed", 42u64)?,
        ..CompressionConfig::default()
    };
    let (artifacts, text) = CompressPlan::new(p, cfg, args.flag("layers"))
        .map_err(|e| CliError::Pipeline(e.to_string()))?
        .run(&mut TableSink::default())
        .map_err(|e| CliError::Pipeline(e.to_string()))?;
    if let Some(path) = args.options.get("out") {
        let file = std::fs::File::create(path)
            .map_err(|e| CliError::Pipeline(format!("cannot create {path}: {e}")))?;
        let arts: Vec<LayerArtifact> = artifacts
            .iter()
            .map(|a| LayerArtifact {
                stats: a.stats.clone(),
                quantized: a.quantized.as_deref().cloned(),
            })
            .collect();
        write_artifacts(std::io::BufWriter::new(file), &arts)
            .map_err(|e| CliError::Pipeline(e.to_string()))?;
    }
    out.write_all(text.as_bytes())?;
    Ok(())
}

/// Runs `run`, with a metrics recorder installed for its duration when
/// `--metrics FILE` is given (without one the simulators take their
/// zero-cost no-op path), then writes `document(result, recorder)` to
/// that file.
fn with_metrics<T, E: std::fmt::Display>(
    args: &Options,
    run: impl FnOnce() -> Result<T, E>,
    document: impl FnOnce(&T, &escalate_obs::Registry) -> String,
) -> Result<T, CliError> {
    let path = args.options.get("metrics");
    let registry = path.map(|_| {
        let r = std::sync::Arc::new(escalate_obs::Registry::new());
        escalate_obs::install(std::sync::Arc::clone(&r));
        r
    });
    let result = run();
    if registry.is_some() {
        escalate_obs::uninstall();
    }
    let result = result.map_err(|e| CliError::Pipeline(e.to_string()))?;
    if let (Some(path), Some(reg)) = (path, &registry) {
        std::fs::write(path, document(&result, reg))
            .map_err(|e| CliError::Pipeline(format!("cannot write {path}: {e}")))?;
    }
    Ok(result)
}

fn cmd_simulate(args: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let p = model_arg(args)?;
    let schedule = schedule_arg(args)?;
    let m = m_arg(args)?;
    let seeds = args.get_or("seeds", input_seeds())?;
    let threads = args.get_or("threads", 0usize)?;
    let mut cfg = SimConfig::default()
        .with_m(m)
        .map_err(|e| CliError::Pipeline(e.to_string()))?;
    cfg.threads = threads;
    cfg.schedule = schedule;
    let run = with_metrics(
        args,
        || run_model(&p, &cfg, seeds),
        |run, reg| {
            crate::manifest::render_manifest("simulate", &p.name, &cfg, seeds, run, &reg.snapshot())
        },
    )?;
    out.write_all(escalate_bench::render::render_simulate(&run, &cfg).as_bytes())?;
    Ok(())
}

fn cmd_sweep(args: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    use escalate_bench::sweep::{parse_range, run_sweep, GoldenMode, Sampler, SweepOptions};
    let mut opts = SweepOptions::default();
    if !args.positional.is_empty() {
        opts.networks = args.positional.clone();
    }
    opts.schedule = schedule_arg(args)?;
    opts.samples = args.get_or("samples", opts.samples)?;
    opts.master_seed = args.get_or("seed", opts.master_seed)?;
    opts.input_seeds = args.get_or("seeds", opts.input_seeds)?;
    opts.threads = args.get_or("threads", opts.threads)?;
    if let Some(v) = args.options.get("m") {
        opts.m_range = parse_range(v).map_err(|msg| {
            CliError::Args(ArgError::BadValue {
                option: "m".into(),
                value: msg,
                expected: "an inclusive range like 4..8",
            })
        })?;
    }
    if let Some(v) = args.options.get("pe") {
        opts.pe_range = parse_range(v).map_err(|msg| {
            CliError::Args(ArgError::BadValue {
                option: "pe".into(),
                value: msg,
                expected: "an inclusive range like 8..64",
            })
        })?;
    }
    if let Some(path) = args.options.get("out") {
        opts.out = std::path::PathBuf::from(path);
    }
    if let Some(v) = args.options.get("sampler") {
        opts.sampler = Sampler::parse(v).map_err(|msg| {
            CliError::Args(ArgError::BadValue {
                option: "sampler".into(),
                value: msg,
                expected: "uniform or halton",
            })
        })?;
    }
    // `--check`/`--update` take the golden path as their value.
    for (name, mode) in [("check", GoldenMode::Check), ("update", GoldenMode::Update)] {
        let Some(path) = args.options.get(name) else {
            continue;
        };
        if opts.golden.is_some() {
            return Err(CliError::Args(ArgError::BadValue {
                option: name.into(),
                value: path.clone(),
                expected: "only one of --check/--update",
            }));
        }
        opts.golden = Some((std::path::PathBuf::from(path), mode));
    }
    with_metrics(args, || run_sweep(&opts, out), |_, reg| reg.to_json())?;
    Ok(())
}

fn cmd_inspect(args: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let path = args
        .positional
        .first()
        .ok_or(CliError::Args(ArgError::BadValue {
            option: "FILE".into(),
            value: "<missing>".into(),
            expected: "an artifact path",
        }))?;
    let file = std::fs::File::open(path)
        .map_err(|e| CliError::Pipeline(format!("cannot open {path}: {e}")))?;
    let arts = read_artifacts(std::io::BufReader::new(file))
        .map_err(|e| CliError::Pipeline(e.to_string()))?;
    writeln!(out, "{path}: {} layers", arts.len())?;
    writeln!(
        out,
        "{:<24} {:>10} {:>10} {:>8} {:>6}",
        "layer", "origbits", "compbits", "spar%", "M"
    )?;
    let mut orig = 0usize;
    let mut comp = 0usize;
    for a in &arts {
        orig += a.stats.original_bits;
        comp += a.stats.compressed_bits;
        let m = a.quantized.as_ref().map_or(0, |q| q.basis.shape()[0]);
        writeln!(
            out,
            "{:<24} {:>10} {:>10} {:>7.1}% {:>6}",
            a.stats.name,
            a.stats.original_bits,
            a.stats.compressed_bits,
            a.stats.coeff_sparsity() * 100.0,
            m
        )?;
    }
    match escalate_sim::checked_ratio(orig as u64, comp as u64) {
        Some(r) => writeln!(out, "\ntotal: {r:.2}x compression")?,
        None => writeln!(out, "\ntotal: no compressed bits recorded")?,
    }
    Ok(())
}

fn cmd_validate(args: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    use escalate_sim::detailed::simulate_layer_detailed;
    use escalate_sim::trace::simulate_layer_traced;
    use escalate_sim::{simulate_layer, WorkloadMode};

    let p = model_arg(args)?;
    let workload = workload_cached(&p, &CompressionConfig::default())
        .map_err(|e| CliError::Pipeline(e.to_string()))?;

    // Pick the requested layer, or the widest decomposed layer small
    // enough for the detailed mode.
    let lw = match args.options.get("layer") {
        Some(name) => workload
            .layers
            .iter()
            .find(|l| &l.name == name)
            .ok_or_else(|| CliError::Pipeline(format!("no layer named {name:?}")))?,
        None => workload
            .layers
            .iter()
            .filter(|l| matches!(l.mode, WorkloadMode::Decomposed(_)))
            .filter(|l| l.positions() <= 1024 && l.out_channels <= 256)
            .max_by_key(|l| l.shape.c)
            .ok_or_else(|| CliError::Pipeline("no detailed-mode-sized layer found".into()))?,
    };
    if matches!(lw.mode, WorkloadMode::Dense) {
        return Err(CliError::Pipeline(format!(
            "{} uses the dense fallback; pick a compressed layer",
            lw.name
        )));
    }
    let cfg = SimConfig::default();
    let ifm = escalate_models::synth::activations(&lw.shape, lw.act_sparsity, 7);

    let engine = simulate_layer(lw, &cfg, 0);
    let traced =
        simulate_layer_traced(lw, &cfg, &ifm).map_err(|e| CliError::Pipeline(e.to_string()))?;
    let detailed =
        simulate_layer_detailed(lw, &cfg, &ifm).map_err(|e| CliError::Pipeline(e.to_string()))?;
    writeln!(out, "layer {} of {} ({}):\n", lw.name, p.name, lw.shape)?;
    writeln!(out, "{:<22} {:>12} {:>14}", "mode", "cycles", "CA matches")?;
    let rows = [
        ("sampling engine", engine.cycles, engine.ca_adds),
        ("trace-driven", traced.cycles, traced.ca_adds),
        ("detailed (stepped)", detailed.cycles, detailed.matched),
    ];
    for (mode, cycles, matches) in rows {
        writeln!(out, "{mode:<22} {cycles:>12} {matches:>14}")?;
    }
    let vs_engine = |cycles: u64| {
        escalate_sim::checked_ratio(cycles, engine.cycles)
            .map_or_else(|| "n/a".to_string(), |r| format!("{r:.2}"))
    };
    writeln!(
        out,
        "\ntrace/engine = {}, detailed/engine = {}",
        vs_engine(traced.cycles),
        vs_engine(detailed.cycles),
    )?;
    Ok(())
}

fn cmd_characterize(args: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let p = model_arg(args)?;
    let ch = escalate_models::analysis::ModelCharacter::of(&p, m_arg(args)?);
    writeln!(
        out,
        "{:<24} {:>12} {:>10} {:>10} {:>9} {:>9}",
        "layer", "MACs", "bytes", "intensity", "C/M", "positions"
    )?;
    for l in &ch.layers {
        writeln!(
            out,
            "{:<24} {:>12} {:>10} {:>10.1} {:>9.1} {:>9}",
            l.name, l.macs, l.bytes, l.intensity, l.cm_bound, l.positions
        )?;
    }
    writeln!(
        out,
        "\nmodel: intensity {:.1} MAC/B, mean C/M bound {:.1}x, DSC MAC share {:.1}%",
        ch.mean_intensity(),
        ch.mean_cm_bound(),
        ch.dsc_mac_fraction() * 100.0
    )?;
    Ok(())
}

fn cmd_serve(args: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let opts = escalate_serve::ServeOptions {
        port: args.get_or("port", 0u16)?,
        workers: args.get_or("workers", 2usize)?,
        queue: args.get_or("queue", 8usize)?,
        cache: match args.options.get("cache") {
            None => None,
            Some(_) => Some(args.get_or("cache", 0usize)?),
        },
        port_file: args.options.get("port-file").map(std::path::PathBuf::from),
    };
    let handle = escalate_serve::start(opts).map_err(CliError::Pipeline)?;
    let port = handle.port();
    eprintln!("escalate serve: listening on 127.0.0.1:{port} (send a shutdown request to stop)");
    let summary = handle.join().map_err(CliError::Pipeline)?;
    writeln!(
        out,
        "escalate serve: drained — {} jobs done, {} failed",
        summary.jobs_done, summary.jobs_failed
    )?;
    Ok(())
}

/// Resolves the daemon port for `submit`: `--port`, or `--port-file`
/// written by an ephemerally-bound daemon.
fn submit_port(args: &Options) -> Result<u16, CliError> {
    if args.options.contains_key("port") {
        return args.get_or("port", 0u16).map_err(CliError::Args);
    }
    let Some(path) = args.options.get("port-file") else {
        return Err(CliError::Args(ArgError::BadValue {
            option: "port".into(),
            value: "<missing>".into(),
            expected: "--port <N> or --port-file <FILE>",
        }));
    };
    let raw = std::fs::read_to_string(path)
        .map_err(|e| CliError::Pipeline(format!("cannot read port file {path}: {e}")))?;
    raw.trim().parse().map_err(|_| {
        CliError::Args(ArgError::BadValue {
            option: "port-file".into(),
            value: raw.trim().into(),
            expected: "a file holding one port number",
        })
    })
}

fn cmd_submit(args: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let verb = args
        .positional
        .first()
        .ok_or(CliError::Args(ArgError::BadValue {
            option: "VERB".into(),
            value: "<missing>".into(),
            expected: "simulate|compress|report|metrics|ping|shutdown",
        }))?;
    let arg = |what: &'static str| {
        args.positional
            .get(1)
            .cloned()
            .ok_or(CliError::Args(ArgError::BadValue {
                option: "ARG".into(),
                value: "<missing>".into(),
                expected: what,
            }))
    };
    let req = match verb.as_str() {
        "simulate" => escalate_serve::Request::Simulate {
            model: arg("a model name, @FILE, or gen:NAME spec")?,
            m: args.get_or("m", 6usize)?,
            seeds: args.get_or("seeds", 1u64)?,
            // Validate locally so a typo fails here, not as a daemon-side
            // error frame; the wire carries the canonical spelling.
            schedule: schedule_arg(args)?.as_str().to_string(),
        },
        "compress" => escalate_serve::Request::Compress {
            model: arg("a model name")?,
            m: args.get_or("m", 6usize)?,
            qat: args.get_or("qat", 0usize)?,
            seed: args.get_or("seed", 42u64)?,
            layers: args.flag("layers"),
        },
        "report" => escalate_serve::Request::Report {
            experiment: arg("an experiment name")?,
        },
        "metrics" => escalate_serve::Request::Metrics,
        "ping" => escalate_serve::Request::Ping,
        "shutdown" => escalate_serve::Request::Shutdown,
        other => {
            return Err(CliError::Args(ArgError::BadValue {
                option: "VERB".into(),
                value: other.into(),
                expected: "simulate|compress|report|metrics|ping|shutdown",
            }))
        }
    };
    let port = submit_port(args)?;
    let frames = escalate_serve::submit(port, &req)
        .map_err(|e| CliError::Pipeline(format!("cannot reach 127.0.0.1:{port}: {e}")))?;
    for frame in &frames {
        writeln!(out, "{frame}")?;
    }
    match frames
        .last()
        .and_then(|f| escalate_obs::json_string_field(f, "type"))
    {
        Some(kind) if kind == "error" || kind == "rejected" => Err(CliError::Refused(kind)),
        _ => Ok(()),
    }
}

fn cmd_loadgen(args: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let opts = escalate_serve::LoadgenOptions {
        jobs: args.get_or("jobs", 24usize)?,
        seed: args.get_or("seed", 42u64)?,
        workers: args.get_or("workers", 2usize)?,
        queue: args.get_or("queue", 4usize)?,
    };
    let r = escalate_serve::run_loadgen(&opts).map_err(CliError::Pipeline)?;
    writeln!(
        out,
        "loadgen: {} jobs ({} done, {} failed, {} backpressure retries) in {:.0} ms\n\
         latency p50 {:.1} ms, p99 {:.1} ms; {:.2} jobs/s ({} workers, queue {})",
        r.jobs,
        r.done,
        r.failed,
        r.retries,
        r.wall_ms,
        r.p50_ms,
        r.p99_ms,
        r.jobs_per_sec,
        r.workers,
        r.queue
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses and runs one command line; the output, or the first error.
    fn run(line: &[&str]) -> Result<String, CliError> {
        let mut out = Vec::new();
        dispatch(&ParsedArgs::parse(line.iter().copied())?, &mut out)?;
        Ok(String::from_utf8(out).expect("UTF-8 output"))
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&["help"]).unwrap();
        assert!(out.contains("COMMANDS"));
        assert!(out.contains("simulate"));
    }

    #[test]
    fn models_lists_all_six() {
        let out = run(&["models"]).unwrap();
        for name in [
            "VGG16",
            "ResNet18",
            "ResNet152",
            "MobileNetV2",
            "ResNet50",
            "MobileNet",
        ] {
            assert!(out.contains(name), "{name} missing:\n{out}");
        }
    }

    #[test]
    fn unknown_model_is_reported() {
        let e = run(&["compress", "LeNet"]).unwrap_err();
        assert!(e.to_string().contains("LeNet"));
    }

    #[test]
    fn unknown_command_is_reported() {
        let e = run(&["frobnicate"]).unwrap_err();
        assert!(e.to_string().contains("frobnicate"));
    }

    #[test]
    fn unknown_option_is_reported() {
        let e = run(&["compress", "VGG16", "--bogus", "1"]).unwrap_err();
        assert!(e.to_string().contains("bogus"));
    }

    #[test]
    fn compress_mobilenet_end_to_end() {
        let out = run(&["compress", "MobileNet", "--layers"]).unwrap();
        assert!(out.contains("compression"));
        assert!(out.contains("dw1+pw1"), "per-layer output expected:\n{out}");
    }

    #[test]
    fn compress_saves_and_inspect_loads() {
        let dir = std::env::temp_dir().join("escalate_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mobilenet.esca");
        let p = path.to_str().unwrap();
        run(&["compress", "MobileNet", "--out", p]).unwrap();
        let out = run(&["inspect", p]).unwrap();
        assert!(out.contains("compression"), "{out}");
        assert!(out.contains("dw1+pw1"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn simulate_with_metrics_writes_a_manifest() {
        let dir = std::env::temp_dir().join("escalate_cli_metrics_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.json");
        let p = path.to_str().unwrap();
        run(&["simulate", "MobileNet", "--seeds", "1", "--metrics", p]).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        // Structure only: other tests in this binary run in parallel and
        // may record onto the installed registry, so exact counter values
        // are asserted by the sim crate's observer tests instead.
        for needle in [
            "\"schema\": \"escalate-run-manifest/v1\"",
            "\"model\": \"MobileNet\"",
            "\"seeds\": 1",
            "\"accelerators\":",
            "\"layers\":",
            "\"metrics\":",
            "sim.cycles",
            "bench.model/MobileNet",
            "bench.workload_",
            "sim.mask_draw",
            "ca.plan_compile",
        ] {
            assert!(json.contains(needle), "missing {needle} in manifest");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_compares_fidelities() {
        let out = run(&["validate", "MobileNet"]).unwrap();
        assert!(out.contains("sampling engine"), "{out}");
        assert!(out.contains("detailed"), "{out}");
    }

    #[test]
    fn characterize_reports_structure() {
        let out = run(&["characterize", "MobileNet"]).unwrap();
        assert!(out.contains("DSC MAC share"));
        assert!(out.contains("dw1"));
    }

    #[test]
    fn report_list_enumerates_the_registry() {
        let out = run(&["report", "--list"]).unwrap();
        for name in ["table1", "fig8", "fig13"] {
            assert!(out.contains(name), "{name} missing:\n{out}");
        }
    }

    #[test]
    fn report_flag_before_name_keeps_the_name() {
        // `--check table4` is the flag plus an experiment name, not a
        // flag holding a value: the report grammar reads its own tokens.
        let line = ["report", "--check", "table4", "--results", "/nonexistent"];
        let mut out = Vec::new();
        let e = dispatch(&ParsedArgs::parse(line).unwrap(), &mut out).unwrap_err();
        assert!(e.to_string().contains("golden drift"), "{e}");
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("DRIFT table4"), "{text}");
        assert!(text.contains("1 experiment(s) checked"), "{text}");
    }

    #[test]
    fn report_rejects_empty_and_unknown_invocations() {
        let e = run(&["report"]).unwrap_err();
        assert!(e.to_string().contains("nothing to do"), "{e}");
        let e = run(&["report", "fig99"]).unwrap_err();
        assert!(e.to_string().contains("fig99"), "{e}");
    }

    #[test]
    fn sweep_rejects_bad_inputs() {
        let e = run(&["sweep", "MobileNet", "--m", "8..4"]).unwrap_err();
        assert!(e.to_string().contains("1 <= A <= B"), "{e}");
        let e = run(&["sweep", "MobileNet", "--pe", "nope"]).unwrap_err();
        assert!(e.to_string().contains("inclusive range"), "{e}");
        let e = run(&["sweep", "MobileNet", "--out"]).unwrap_err();
        assert!(e.to_string().contains("--out"), "{e}");
        let e = run(&["sweep", "NotANet", "--samples", "1"]).unwrap_err();
        assert!(e.to_string().contains("NotANet"), "{e}");
    }

    #[test]
    fn sweep_streams_then_resumes_without_rerunning() {
        let dir = std::env::temp_dir().join("escalate_cli_sweep_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.jsonl");
        std::fs::remove_file(&path).ok();
        let p = path.to_str().unwrap();
        let line = ["sweep", "MobileNet", "--samples=1", "--seeds=1", "--out", p];
        let cold = run(&line).unwrap();
        assert!(cold.contains("1 sample(s) ran, 0 resumed"), "{cold}");
        assert!(
            cold.contains("Pareto frontier - MobileNet (1 of 1"),
            "{cold}"
        );
        // Re-running the same sweep resumes: nothing re-runs, and the
        // frontier (computed from the parsed stream) is identical.
        let resumed = run(&line).unwrap();
        assert!(resumed.contains("0 sample(s) ran, 1 resumed"), "{resumed}");
        let frontier = |s: &str| {
            s.lines()
                .skip(1)
                .map(str::to_string)
                .collect::<Vec<String>>()
        };
        assert_eq!(frontier(&cold), frontier(&resumed));
        std::fs::remove_file(&path).ok();
    }
}
