//! The job model: what the service runs, validated up front.
//!
//! A job arrives as the `"job"` object of a request envelope. Its
//! `"kind"` selects one of nine shapes, each admitted and run with a
//! slot held:
//!
//! * circuit analyses on a netlist deck carried in the request —
//!   `"op"`, `"dc_sweep"`, `"ac_sweep"`, `"transient"`; each names the
//!   probe nodes explicitly, so a response never depends on internal
//!   table ordering;
//! * paper figure experiments — `"fig2"`, `"fig5"`, `"fig7"` — which
//!   return the flat scalar reports of [`carbon_core::jobs`]; only
//!   `"fig7"` takes parameters, an optional `target_ci` (with an
//!   optional `max_devices`) that sizes its campaign adaptively;
//! * wafer-economics campaigns — `"econ_point"` (one cell: yield,
//!   good dies per wafer, cost and carbon per good die) and
//!   `"econ_campaign"` (a full node × area × defect × purity grid
//!   with summary percentiles), evaluated by [`carbon_econ`] over the
//!   deterministic chunked executor.
//!
//! The two other kinds the service takes, `"ping"` (liveness: version
//! and uptime) and `"stats"` (the full metrics-registry snapshot),
//! report the server itself and are not jobs: the connection thread
//! answers them before any cache probe or admission, so they never
//! wait for a slot, and a server saturated with solves still answers
//! its health checks.
//!
//! [`Job::from_json`] performs the whole validation — unknown kinds are
//! rejected with the valid choices listed, missing or ill-typed fields
//! are named, numeric bounds are enforced, and the netlist deck is
//! parsed — **before** the job is admitted, so a malformed request can
//! never occupy a slot.
//!
//! Execution ([`Job::run`]) produces a [`Json`] tree with insertion-
//! ordered fields and no timestamps, so the rendered result for a given
//! request body is byte-identical regardless of slot count or arrival
//! order.

use carbon_econ::{CampaignGrid, CostModel, EconConfig, EconError, McMode, NodeSpec, YieldModel};
use carbon_json::Json;
use carbon_spice::parser::parse_deck;
use carbon_spice::{AcOptions, Circuit, DcOptions, SpiceError, TranMethod, TranOptions};

/// The kinds the service accepts, in the order error messages list
/// them: the [`QUEUED_JOB_KINDS`], then `ping` and `stats`.
pub const JOB_KINDS: [&str; 11] = [
    "op",
    "dc_sweep",
    "ac_sweep",
    "transient",
    "fig2",
    "fig5",
    "fig7",
    "econ_point",
    "econ_campaign",
    "ping",
    "stats",
];

/// The job kinds that are admitted and run with a slot held, one per
/// [`Job`] variant — every kind except `ping` and `stats`, which the
/// connection thread answers itself. This is the set the server
/// pre-registers latency and queue-wait histograms for.
pub const QUEUED_JOB_KINDS: [&str; 9] = [
    "op",
    "dc_sweep",
    "ac_sweep",
    "transient",
    "fig2",
    "fig5",
    "fig7",
    "econ_point",
    "econ_campaign",
];

/// Largest accepted AC grid, points. Bounds the work a single request
/// can demand.
pub const MAX_AC_POINTS: usize = 100_000;

/// Largest accepted DC sweep grid, points. Bounds the work and memory
/// a single request can demand.
pub const MAX_SWEEP_POINTS: usize = 100_000;

/// Largest accepted transient horizon in steps: `tstop / tstep` for
/// the fixed method, `tstop / options.max_step` (a floor on the step
/// count) for the adaptive one. Bounds the work a single request can
/// demand.
pub const MAX_TRAN_STEPS: usize = 10_000_000;

/// Largest accepted `max_devices` for the adaptive fig7 campaign.
/// Bounds the work a single request can demand.
pub const MAX_CAMPAIGN_DEVICES: usize = 1_000_000;

/// Largest accepted econ campaign grid, cells.
pub const MAX_ECON_CELLS: usize = 100_000;

/// Largest accepted econ campaign Monte-Carlo budget: cells × devices
/// per cell (the per-cell cap, in the adaptive mode). Bounds the work a
/// single request can demand.
pub const MAX_ECON_SAMPLES: u64 = 20_000_000;

/// Default devices per econ cell when the request names no `devices`.
pub const DEFAULT_ECON_DEVICES: u64 = 2048;

/// Default per-cell device cap for adaptive econ campaigns without an
/// explicit `max_devices`.
pub const DEFAULT_ECON_MAX_DEVICES: u64 = 65_536;

/// Errors from job validation and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The request was rejected before execution; the message names the
    /// offending field.
    Invalid {
        /// Human-readable reason, naming the field.
        reason: String,
    },
    /// The analysis itself failed (non-convergence, singular matrix,
    /// unknown probe node, ...).
    Exec {
        /// The underlying error, rendered.
        message: String,
    },
    /// The job observed its deadline (or an explicit cancel) at a
    /// solver checkpoint and stopped early.
    Cancelled {
        /// The underlying cancellation report.
        message: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Invalid { reason } => write!(f, "invalid job: {reason}"),
            Self::Exec { message } => write!(f, "job failed: {message}"),
            Self::Cancelled { message } => write!(f, "job cancelled: {message}"),
        }
    }
}

impl std::error::Error for JobError {}

impl JobError {
    fn invalid(reason: impl Into<String>) -> Self {
        Self::Invalid {
            reason: reason.into(),
        }
    }

    /// Classifies a solver error: cancellation keeps its own variant so
    /// the server can answer with status `"timeout"` instead of
    /// `"error"`.
    fn from_spice(e: &SpiceError) -> Self {
        match e {
            SpiceError::Cancelled { .. } => Self::Cancelled {
                message: e.to_string(),
            },
            other => Self::Exec {
                message: other.to_string(),
            },
        }
    }

    /// Classifies an econ-engine error the same way: cancellation maps
    /// to the timeout variant, validation failures keep their
    /// field-naming message.
    fn from_econ(e: EconError) -> Self {
        match e {
            EconError::Cancelled => Self::Cancelled {
                message: e.to_string(),
            },
            EconError::Invalid { reason } => Self::Invalid { reason },
        }
    }
}

/// A validated, ready-to-run job. Decks are parsed at validation time,
/// so a `Job` that runs can only fail in the solver.
#[derive(Debug)]
pub enum Job {
    /// DC operating point of a deck; reports the named node voltages.
    Op {
        /// The parsed netlist.
        circuit: Circuit,
        /// Probe nodes, in request order.
        nodes: Vec<String>,
    },
    /// DC sweep of a named source.
    DcSweep {
        /// The parsed netlist.
        circuit: Circuit,
        /// Swept source name.
        source: String,
        /// Sweep start, V or A.
        from: f64,
        /// Sweep stop, V or A.
        to: f64,
        /// Sweep step (positive).
        step: f64,
        /// Probe nodes, in request order.
        nodes: Vec<String>,
    },
    /// AC sweep over a log-spaced frequency grid.
    AcSweep {
        /// The parsed netlist.
        circuit: Circuit,
        /// AC stimulus source name.
        source: String,
        /// Materialized frequency grid, Hz.
        freqs: Vec<f64>,
        /// Probe nodes, in request order.
        nodes: Vec<String>,
    },
    /// Transient analysis: fixed-step by default (byte-identical to the
    /// pre-`method` responses), LTE-adaptive on request.
    Transient {
        /// The parsed netlist.
        circuit: Circuit,
        /// Time step, s (initial step for the adaptive method).
        tstep: f64,
        /// Stop time, s.
        tstop: f64,
        /// Method and LTE tuning, resolved from the optional
        /// `"method"`/`"options"` request fields.
        options: TranOptions,
        /// Probe nodes, in request order.
        nodes: Vec<String>,
    },
    /// The Fig. 2 inverter experiment.
    Fig2,
    /// The Fig. 5 CNT benchmarking experiment.
    Fig5,
    /// The §V variability-statistics experiment. Parameterless by
    /// default (the fixed 10,000-device campaign); an optional
    /// `target_ci` switches to adaptive sizing, with `max_devices`
    /// capping the growth.
    Fig7 {
        /// Target 95 % CI half-width on the functional yield;
        /// `None` runs the fixed campaign.
        target_ci: Option<f64>,
        /// Device cap for the adaptive campaign.
        max_devices: Option<usize>,
    },
    /// One wafer-economics cell: a single-cell [`CampaignGrid`]
    /// evaluated by [`carbon_econ::evaluate`], reporting yield, good
    /// dies per wafer, and cost/carbon per good die.
    EconPoint {
        /// The validated single-cell grid.
        grid: CampaignGrid,
        /// Cost model, yield model, and Monte-Carlo sizing.
        config: EconConfig,
    },
    /// A full wafer-economics campaign: node × area × defect density ×
    /// purity, cells in the deterministic grid order, with summary
    /// percentiles over the viable cells.
    EconCampaign {
        /// The validated sweep grid.
        grid: CampaignGrid,
        /// Cost model, yield model, and Monte-Carlo sizing.
        config: EconConfig,
    },
}

impl Job {
    /// The job's kind string, for spans and load statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Op { .. } => "op",
            Self::DcSweep { .. } => "dc_sweep",
            Self::AcSweep { .. } => "ac_sweep",
            Self::Transient { .. } => "transient",
            Self::Fig2 => "fig2",
            Self::Fig5 => "fig5",
            Self::Fig7 { .. } => "fig7",
            Self::EconPoint { .. } => "econ_point",
            Self::EconCampaign { .. } => "econ_campaign",
        }
    }

    /// Validates the `"job"` object of a request. `ping` and `stats` are
    /// not jobs: the server answers them before it calls this, and here
    /// they are unknown kinds.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Invalid`] naming the offending field for
    /// unknown kinds, missing or ill-typed fields, out-of-range values,
    /// and malformed decks.
    pub fn from_json(job: &Json) -> Result<Self, JobError> {
        if !matches!(job, Json::Obj(_)) {
            return Err(JobError::invalid("job must be an object"));
        }
        let kind = job
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| JobError::invalid("job.kind must be a string"))?;
        match kind {
            "op" => Ok(Self::Op {
                circuit: deck_field(job)?,
                nodes: nodes_field(job)?,
            }),
            "dc_sweep" => {
                let from = num_field(job, "from")?;
                let to = num_field(job, "to")?;
                let step = num_field(job, "step")?;
                if step <= 0.0 {
                    return Err(JobError::invalid(format!(
                        "job.step = {step} must be positive"
                    )));
                }
                // Checked before the deck is parsed: the grid has
                // round(|to − from| / step) + 1 points, at most this.
                let points = (to - from).abs() / step + 1.0;
                if points > MAX_SWEEP_POINTS as f64 {
                    return Err(JobError::invalid(format!(
                        "job.step = {step} over job.from = {from} .. job.to = {to} gives about \
                         {points:.0} sweep points, more than the maximum {MAX_SWEEP_POINTS}"
                    )));
                }
                Ok(Self::DcSweep {
                    circuit: deck_field(job)?,
                    source: str_field(job, "source")?,
                    from,
                    to,
                    step,
                    nodes: nodes_field(job)?,
                })
            }
            "ac_sweep" => {
                let fstart = num_field(job, "fstart")?;
                let fstop = num_field(job, "fstop")?;
                let ppd = job
                    .get("points_per_decade")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| {
                        JobError::invalid("job.points_per_decade must be a positive integer")
                    })?;
                if fstart <= 0.0 {
                    return Err(JobError::invalid(format!(
                        "job.fstart = {fstart} must be positive"
                    )));
                }
                if fstop < fstart {
                    return Err(JobError::invalid(format!(
                        "job.fstop = {fstop} must be at least job.fstart = {fstart}"
                    )));
                }
                if ppd == 0 {
                    return Err(JobError::invalid(
                        "job.points_per_decade must be a positive integer",
                    ));
                }
                // Bound the grid from the decade count BEFORE
                // materializing it — the estimate is within one point
                // of the real size, so an oversized request cannot
                // allocate an oversized vector first.
                let estimated = (fstop / fstart).log10().max(0.0) * ppd as f64;
                if !estimated.is_finite() || estimated >= MAX_AC_POINTS as f64 {
                    return Err(JobError::invalid(format!(
                        "ac grid would have about {estimated:.0} points, more than the \
                         maximum {MAX_AC_POINTS}"
                    )));
                }
                let freqs = log_grid(fstart, fstop, ppd);
                Ok(Self::AcSweep {
                    circuit: deck_field(job)?,
                    source: str_field(job, "source")?,
                    freqs,
                    nodes: nodes_field(job)?,
                })
            }
            "transient" => {
                let tstep = num_field(job, "tstep")?;
                let tstop = num_field(job, "tstop")?;
                for (field, value) in [("tstep", tstep), ("tstop", tstop)] {
                    if value <= 0.0 {
                        return Err(JobError::invalid(format!(
                            "job.{field} = {value} must be positive"
                        )));
                    }
                }
                if tstep > tstop {
                    return Err(JobError::invalid(format!(
                        "job.tstep = {tstep} exceeds job.tstop = {tstop}"
                    )));
                }
                let options = tran_options_fields(job)?;
                let least_steps = match options.method {
                    TranMethod::FixedStep => Some(("job.tstep", tstep, "fixed")),
                    TranMethod::Adaptive => options
                        .max_step
                        .map(|h| ("job.options.max_step", h, "adaptive")),
                };
                if let Some((field, step, method)) = least_steps {
                    let steps = tstop / step;
                    if steps > MAX_TRAN_STEPS as f64 {
                        return Err(JobError::invalid(format!(
                            "job.tstop / {field} = {tstop} / {step} gives at least {steps:.0} \
                             {method} steps, more than the maximum {MAX_TRAN_STEPS}"
                        )));
                    }
                }
                Ok(Self::Transient {
                    circuit: deck_field(job)?,
                    tstep,
                    tstop,
                    options,
                    nodes: nodes_field(job)?,
                })
            }
            "fig2" => Ok(Self::Fig2),
            "fig5" => Ok(Self::Fig5),
            "fig7" => {
                let target_ci = target_ci_field(job)?;
                let max_devices = match job.get("max_devices") {
                    None => None,
                    Some(v) => {
                        // Like transient options without the adaptive
                        // method: a cap on a fixed-size campaign would
                        // be silently ignored, so reject it.
                        if target_ci.is_none() {
                            return Err(JobError::invalid(
                                "job.max_devices is only accepted with job.target_ci",
                            ));
                        }
                        let m = v
                            .as_u64()
                            .filter(|m| *m > 0 && *m <= MAX_CAMPAIGN_DEVICES as u64)
                            .ok_or_else(|| {
                                JobError::invalid(format!(
                                    "job.max_devices must be a positive integer at most \
                                     {MAX_CAMPAIGN_DEVICES}"
                                ))
                            })?;
                        Some(m as usize)
                    }
                };
                Ok(Self::Fig7 {
                    target_ci,
                    max_devices,
                })
            }
            "econ_point" => {
                let node = econ_node(
                    job.get("node")
                        .ok_or_else(|| JobError::invalid("job.node must be present"))?,
                    "job.node",
                )?;
                let area = num_field(job, "area_cm2")?;
                let d0 = num_field(job, "d0")?;
                let purity = num_field(job, "purity")?;
                let config = econ_config_fields(job)?;
                let grid =
                    CampaignGrid::point(node, area, d0, purity).map_err(JobError::from_econ)?;
                check_econ_budget(&grid, &config)?;
                Ok(Self::EconPoint { grid, config })
            }
            "econ_campaign" => {
                let nodes_json = job.get("nodes").and_then(Json::as_array).ok_or_else(|| {
                    JobError::invalid("job.nodes must be an array of preset names or node objects")
                })?;
                let mut nodes = Vec::with_capacity(nodes_json.len());
                for (i, n) in nodes_json.iter().enumerate() {
                    nodes.push(econ_node(n, &format!("job.nodes[{i}]"))?);
                }
                let areas = num_array_field(job, "areas_cm2")?;
                let d0 = num_array_field(job, "d0")?;
                let purities = num_array_field(job, "purities")?;
                let config = econ_config_fields(job)?;
                let grid =
                    CampaignGrid::new(nodes, areas, d0, purities).map_err(JobError::from_econ)?;
                check_econ_budget(&grid, &config)?;
                Ok(Self::EconCampaign { grid, config })
            }
            other => Err(JobError::invalid(format!(
                "unknown job.kind '{other}': valid kinds are {}",
                JOB_KINDS.join(", ")
            ))),
        }
    }

    /// Runs the job to a deterministic result tree.
    ///
    /// The server installs a [`carbon_runtime::CancelToken`] scope around
    /// this call; solver checkpoints turn an expired deadline into
    /// [`JobError::Cancelled`].
    ///
    /// # Errors
    ///
    /// [`JobError::Exec`] for solver failures and unknown probe names,
    /// [`JobError::Cancelled`] when a deadline fires.
    pub fn run(&self) -> Result<Json, JobError> {
        match self {
            Self::Op { circuit, nodes } => {
                let op = circuit.op().map_err(|e| JobError::from_spice(&e))?;
                let mut voltages = Json::obj();
                for node in nodes {
                    let v = op.voltage(node).map_err(|e| JobError::from_spice(&e))?;
                    voltages = voltages.push(node, v);
                }
                Ok(Json::obj().push("nodes", voltages))
            }
            Self::DcSweep {
                circuit,
                source,
                from,
                to,
                step,
                nodes,
            } => {
                let sweep = circuit
                    .dc_sweep(source, *from, *to, *step, DcOptions::default())
                    .map_err(|e| JobError::from_spice(&e))?;
                let mut traces = Json::obj();
                for node in nodes {
                    let vs = sweep.voltages(node).map_err(|e| JobError::from_spice(&e))?;
                    traces = traces.push(node, float_array(&vs));
                }
                Ok(Json::obj()
                    .push("sweep", float_array(sweep.sweep_values()))
                    .push("newton_iterations", sweep.total_newton_iterations())
                    .push("nodes", traces))
            }
            Self::AcSweep {
                circuit,
                source,
                freqs,
                nodes,
            } => {
                let ac = circuit
                    .ac_sweep(source, freqs, AcOptions::default())
                    .map_err(|e| JobError::from_spice(&e))?;
                let mut traces = Json::obj();
                for node in nodes {
                    let mag = ac.magnitude(node).map_err(|e| JobError::from_spice(&e))?;
                    let phase = ac.phase(node).map_err(|e| JobError::from_spice(&e))?;
                    traces = traces.push(
                        node,
                        Json::obj()
                            .push("magnitude", float_array(&mag))
                            .push("phase_rad", float_array(&phase)),
                    );
                }
                Ok(Json::obj()
                    .push("freqs", float_array(ac.frequencies()))
                    .push("nodes", traces))
            }
            Self::Transient {
                circuit,
                tstep,
                tstop,
                options,
                nodes,
            } => {
                let tran = circuit
                    .transient(*tstep, *tstop, *options)
                    .map_err(|e| JobError::from_spice(&e))?;
                let mut traces = Json::obj();
                for node in nodes {
                    let vs = tran.voltages(node).map_err(|e| JobError::from_spice(&e))?;
                    traces = traces.push(node, float_array(vs));
                }
                let mut result = Json::obj().push("times", float_array(tran.times()));
                // The default (fixed) response keeps its historical
                // shape byte for byte; the adaptive method reports its
                // step-controller statistics alongside.
                if options.method == TranMethod::Adaptive {
                    result = result
                        .push("steps", tran.accepted_steps())
                        .push("rejects", tran.rejected_steps());
                }
                Ok(result.push("nodes", traces))
            }
            Self::Fig2 => figure_result(carbon_core::jobs::fig2_report()),
            Self::Fig5 => figure_result(carbon_core::jobs::fig5_report()),
            // No target: the fixed campaign, byte-identical to the
            // historical parameterless response.
            Self::Fig7 {
                target_ci: None, ..
            } => figure_result(carbon_core::jobs::fig7_report()),
            Self::Fig7 {
                target_ci: Some(target),
                max_devices,
            } => figure_result(carbon_core::jobs::fig7_report_adaptive(
                *target,
                max_devices.unwrap_or(carbon_core::fig7_stats::ADAPTIVE_MAX_DEFAULT),
            )),
            // The chunked executor gives every cell its own RNG stream
            // and the ambient cancel token rides into its workers, so
            // deadlines behave exactly as they do for solver jobs.
            Self::EconPoint { grid, config } => {
                let result = carbon_econ::evaluate(&carbon_runtime::Executor::new(), grid, config)
                    .map_err(JobError::from_econ)?;
                Ok(Json::obj().push("point", econ_point_json(&result.points[0])))
            }
            Self::EconCampaign { grid, config } => {
                let result = carbon_econ::evaluate(&carbon_runtime::Executor::new(), grid, config)
                    .map_err(JobError::from_econ)?;
                let points = Json::Arr(result.points.iter().map(econ_point_json).collect());
                let summary = result.summary();
                Ok(Json::obj()
                    .push("cells", summary.cells)
                    .push("points", points)
                    .push("summary", econ_summary_json(&summary)))
            }
        }
    }
}

/// Renders a figure report as `{"name":..., "scalars":{...}}`.
fn figure_result(
    report: Result<carbon_core::jobs::JobReport, carbon_core::CoreError>,
) -> Result<Json, JobError> {
    let report = report.map_err(|e| JobError::Exec {
        message: e.to_string(),
    })?;
    let mut scalars = Json::obj();
    for (name, value) in &report.scalars {
        scalars = scalars.push(name, *value);
    }
    Ok(Json::obj()
        .push("name", report.name)
        .push("scalars", scalars))
}

fn float_array(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// Renders one econ cell. Non-finite costs (a cell with zero good
/// dies) render as JSON `null` via the carbon-json float writer.
fn econ_point_json(p: &carbon_econ::EconPoint) -> Json {
    Json::obj()
        .push("index", p.index)
        .push("node", p.node.clone())
        .push("area_cm2", p.area_cm2)
        .push("d0", p.d0)
        .push("purity", p.purity)
        .push("devices_sampled", p.devices_sampled)
        .push("device_yield", p.device_yield)
        .push("ci_half_width", p.ci_half_width)
        .push("circuit_yield", p.circuit_yield)
        .push("defect_yield", p.defect_yield)
        .push("copies_per_die", p.copies_per_die)
        .push("die_yield", p.die_yield)
        .push("dies_per_wafer", p.dies_per_wafer)
        .push("good_dies_per_wafer", p.good_dies_per_wafer)
        .push("working_circuits_per_wafer", p.working_circuits_per_wafer)
        .push("cost_per_good_die", p.cost_per_good_die)
        .push("carbon_per_good_die", p.carbon_per_good_die)
}

/// Renders the campaign summary; `best_index` is `null` when no cell
/// is viable, as are the (infinite) percentiles.
fn econ_summary_json(s: &carbon_econ::CampaignSummary) -> Json {
    Json::obj()
        .push("cells", s.cells)
        .push("viable_cells", s.viable_cells)
        .push("devices_sampled", s.devices_sampled)
        .push("cost_p10", s.cost_p10)
        .push("cost_p50", s.cost_p50)
        .push("cost_p90", s.cost_p90)
        .push("carbon_p50", s.carbon_p50)
        .push("best_index", s.best_index.map_or(Json::Null, Json::from))
}

/// A node axis entry: either a preset name (`"cnt28"`) or an inline
/// object naming all per-area figures. `context` is the field path for
/// error messages (`job.node`, `job.nodes[2]`).
fn econ_node(value: &Json, context: &str) -> Result<NodeSpec, JobError> {
    match value {
        Json::Str(name) => NodeSpec::preset(name).ok_or_else(|| {
            JobError::invalid(format!(
                "{context} '{name}' is not a preset node: valid presets are {}",
                NodeSpec::PRESET_NAMES.join(", ")
            ))
        }),
        Json::Obj(_) => {
            let name = match value.get("name").and_then(Json::as_str) {
                Some(s) if !s.is_empty() => s.to_owned(),
                _ => {
                    return Err(JobError::invalid(format!(
                        "{context}.name must be a non-empty string"
                    )))
                }
            };
            let mut figures = [0.0; 3];
            for (slot, field) in
                figures
                    .iter_mut()
                    .zip(["transistor_density", "wafer_cost", "carbon_per_cm2"])
            {
                *slot = value
                    .get(field)
                    .and_then(Json::as_f64)
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| {
                        JobError::invalid(format!("{context}.{field} must be a finite number"))
                    })?;
            }
            NodeSpec::new(name, figures[0], figures[1], figures[2]).map_err(JobError::from_econ)
        }
        _ => Err(JobError::invalid(format!(
            "{context} must be a preset name or a node object"
        ))),
    }
}

/// Required non-empty array of finite numbers (value ranges are the
/// grid's concern; this guards shape and type).
fn num_array_field(job: &Json, field: &str) -> Result<Vec<f64>, JobError> {
    let items = job
        .get(field)
        .and_then(Json::as_array)
        .ok_or_else(|| JobError::invalid(format!("job.{field} must be an array of numbers")))?;
    if items.is_empty() {
        return Err(JobError::invalid(format!("job.{field} must not be empty")));
    }
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            item.as_f64().filter(|v| v.is_finite()).ok_or_else(|| {
                JobError::invalid(format!("job.{field}[{i}] must be a finite number"))
            })
        })
        .collect()
}

/// `job.target_ci`, when present: a number in (0, 1). It switches the
/// `fig7` and econ Monte-Carlo sizing to adaptive.
fn target_ci_field(job: &Json) -> Result<Option<f64>, JobError> {
    job.get("target_ci")
        .map(|v| {
            v.as_f64()
                .filter(|t| t.is_finite() && *t > 0.0 && *t < 1.0)
                .ok_or_else(|| JobError::invalid("job.target_ci must be a number in (0, 1)"))
        })
        .transpose()
}

/// The shared econ config fields: `yield_model`/`alpha`,
/// `devices` or `target_ci`/`max_devices`, `circuit_devices`, `seed`.
///
/// Field-pairing rules mirror the fig7 and transient precedents:
/// `alpha` is only accepted with the negative-binomial model,
/// `max_devices` only with `target_ci`, and a fixed `devices` count
/// conflicts with `target_ci` (one of them would be silently ignored).
fn econ_config_fields(job: &Json) -> Result<EconConfig, JobError> {
    let yield_model = match job.get("yield_model").map(Json::as_str) {
        None | Some(Some("poisson")) => {
            if job.get("alpha").is_some() {
                return Err(JobError::invalid(
                    "job.alpha is only accepted with job.yield_model = \"negative_binomial\"",
                ));
            }
            YieldModel::Poisson
        }
        Some(Some("negative_binomial")) => {
            let alpha = job
                .get("alpha")
                .ok_or_else(|| {
                    JobError::invalid(
                        "job.alpha is required with job.yield_model = \"negative_binomial\"",
                    )
                })?
                .as_f64()
                .filter(|v| v.is_finite() && *v > 0.0)
                .ok_or_else(|| JobError::invalid("job.alpha must be a positive finite number"))?;
            YieldModel::negative_binomial(alpha).map_err(JobError::from_econ)?
        }
        Some(Some(other)) => {
            return Err(JobError::invalid(format!(
                "job.yield_model '{other}' is not a yield model: valid models are \
                 poisson, negative_binomial"
            )))
        }
        Some(None) => return Err(JobError::invalid("job.yield_model must be a string")),
    };
    let mc = if let Some(target_ci) = target_ci_field(job)? {
        if job.get("devices").is_some() {
            return Err(JobError::invalid(
                "job.devices conflicts with job.target_ci: fixed and adaptive sizing \
                 are mutually exclusive",
            ));
        }
        let max_devices = match job.get("max_devices") {
            None => DEFAULT_ECON_MAX_DEVICES,
            Some(v) => v
                .as_u64()
                .filter(|m| *m > 0 && *m <= MAX_ECON_SAMPLES)
                .ok_or_else(|| {
                    JobError::invalid(format!(
                        "job.max_devices must be a positive integer at most {MAX_ECON_SAMPLES}"
                    ))
                })?,
        };
        McMode::Adaptive {
            target_ci,
            max_devices,
        }
    } else {
        if job.get("max_devices").is_some() {
            return Err(JobError::invalid(
                "job.max_devices is only accepted with job.target_ci",
            ));
        }
        let devices = match job.get("devices") {
            None => DEFAULT_ECON_DEVICES,
            Some(v) => v
                .as_u64()
                .filter(|d| *d > 0 && *d <= MAX_ECON_SAMPLES)
                .ok_or_else(|| {
                    JobError::invalid(format!(
                        "job.devices must be a positive integer at most {MAX_ECON_SAMPLES}"
                    ))
                })?,
        };
        McMode::Fixed { devices }
    };
    let circuit_devices = match job.get("circuit_devices") {
        None => carbon_fab::CircuitYield::SHULAKER_COMPUTER_CNFETS,
        Some(v) => {
            let c = v
                .as_u64()
                .filter(|c| *c > 0 && *c <= 1_000_000)
                .ok_or_else(|| {
                    JobError::invalid(
                        "job.circuit_devices must be a positive integer at most 1000000",
                    )
                })?;
            u32::try_from(c).expect("bounded above by 1000000")
        }
    };
    let seed = match job.get("seed") {
        None => 0,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| JobError::invalid("job.seed must be a non-negative integer"))?,
    };
    Ok(EconConfig {
        cost: CostModel::default(),
        yield_model,
        circuit_devices,
        mc,
        seed,
    })
}

/// Rejects campaigns whose grid or Monte-Carlo budget exceeds the
/// service bounds, before any evaluation work is scheduled.
fn check_econ_budget(grid: &CampaignGrid, config: &EconConfig) -> Result<(), JobError> {
    if grid.len() > MAX_ECON_CELLS {
        return Err(JobError::invalid(format!(
            "econ grid has {} cells, more than the maximum {MAX_ECON_CELLS}",
            grid.len()
        )));
    }
    let samples = (grid.len() as u64).saturating_mul(config.mc.max_devices());
    if samples > MAX_ECON_SAMPLES {
        return Err(JobError::invalid(format!(
            "econ campaign would sample {samples} devices ({} cells × {} per cell), \
             more than the maximum {MAX_ECON_SAMPLES}",
            grid.len(),
            config.mc.max_devices()
        )));
    }
    Ok(())
}

/// Required non-empty string field.
fn str_field(job: &Json, field: &str) -> Result<String, JobError> {
    match job.get(field).and_then(Json::as_str) {
        Some(s) if !s.is_empty() => Ok(s.to_owned()),
        Some(_) => Err(JobError::invalid(format!("job.{field} must be non-empty"))),
        None => Err(JobError::invalid(format!("job.{field} must be a string"))),
    }
}

/// Required finite numeric field. (The JSON parser already rejects
/// non-finite literals; this guards against missing or ill-typed
/// fields.)
fn num_field(job: &Json, field: &str) -> Result<f64, JobError> {
    job.get(field)
        .and_then(Json::as_f64)
        .filter(|v| v.is_finite())
        .ok_or_else(|| JobError::invalid(format!("job.{field} must be a finite number")))
}

/// Required `deck` field, parsed into a circuit up front.
fn deck_field(job: &Json) -> Result<Circuit, JobError> {
    let deck = str_field(job, "deck")?;
    parse_deck(&deck).map_err(|e| JobError::invalid(format!("job.deck: {e}")))
}

/// Optional `"method"` / `"options"` fields of a transient job.
///
/// `"method"` must be `"fixed"` (the default) or `"adaptive"`;
/// `"options"` is an object of LTE knobs (`lte_reltol`, `lte_abstol`,
/// `max_step`, `min_step`, each a positive finite number) and is only
/// accepted with the adaptive method — the fixed method ignores every
/// knob, and silently accepting them would mask request bugs. Unknown
/// option keys are rejected by name.
fn tran_options_fields(job: &Json) -> Result<TranOptions, JobError> {
    let method = match job.get("method") {
        None => TranMethod::FixedStep,
        Some(m) => match m.as_str() {
            Some("fixed") => TranMethod::FixedStep,
            Some("adaptive") => TranMethod::Adaptive,
            Some(other) => {
                return Err(JobError::invalid(format!(
                    "job.method '{other}' is not a transient method: valid methods are \
                     fixed, adaptive"
                )))
            }
            None => return Err(JobError::invalid("job.method must be a string")),
        },
    };
    let mut options = TranOptions {
        method,
        ..TranOptions::default()
    };
    let Some(opts) = job.get("options") else {
        return Ok(options);
    };
    if method != TranMethod::Adaptive {
        return Err(JobError::invalid(
            "job.options is only accepted with job.method = \"adaptive\"",
        ));
    }
    let Json::Obj(entries) = opts else {
        return Err(JobError::invalid("job.options must be an object"));
    };
    for (key, value) in entries {
        let v = value
            .as_f64()
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or_else(|| {
                JobError::invalid(format!(
                    "job.options.{key} must be a positive finite number"
                ))
            })?;
        match key.as_str() {
            "lte_reltol" => options.lte_reltol = v,
            "lte_abstol" => options.lte_abstol = v,
            "max_step" => options.max_step = Some(v),
            "min_step" => options.min_step = Some(v),
            other => {
                return Err(JobError::invalid(format!(
                    "unknown transient option 'job.options.{other}': valid options are \
                     lte_reltol, lte_abstol, max_step, min_step"
                )))
            }
        }
    }
    Ok(options)
}

/// Required non-empty `nodes` array of non-empty strings.
fn nodes_field(job: &Json) -> Result<Vec<String>, JobError> {
    let items = job
        .get("nodes")
        .and_then(Json::as_array)
        .ok_or_else(|| JobError::invalid("job.nodes must be an array of node names"))?;
    if items.is_empty() {
        return Err(JobError::invalid("job.nodes must name at least one node"));
    }
    items
        .iter()
        .map(|item| match item.as_str() {
            Some(s) if !s.is_empty() => Ok(s.to_owned()),
            _ => Err(JobError::invalid(
                "job.nodes entries must be non-empty strings",
            )),
        })
        .collect()
}

/// Log-spaced frequency grid: `points_per_decade` points per decade
/// from `fstart` up to and including `fstop`. Pure function of its
/// inputs, so every run materializes the identical grid.
fn log_grid(fstart: f64, fstop: f64, points_per_decade: u64) -> Vec<f64> {
    let mut freqs = Vec::new();
    let ppd = points_per_decade as f64;
    let mut k = 0u64;
    loop {
        let f = fstart * 10f64.powf(k as f64 / ppd);
        if f >= fstop {
            freqs.push(fstop);
            return freqs;
        }
        freqs.push(f);
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RC_DECK: &str = "* rc low-pass\nV1 in 0 1\nR1 in out 1k\nC1 out 0 1u\n.end\n";

    fn job(kind_body: &str) -> Json {
        Json::parse(kind_body).expect("test job parses")
    }

    #[test]
    fn unknown_kind_lists_valid_choices() {
        let err = Job::from_json(&job("{\"kind\":\"bogus\"}")).unwrap_err();
        let JobError::Invalid { reason } = &err else {
            panic!("expected Invalid, got {err:?}");
        };
        assert!(reason.contains("bogus"), "{reason}");
        for kind in JOB_KINDS {
            assert!(reason.contains(kind), "missing {kind} in {reason}");
        }
        // The listed kinds are the queued kinds, then the two the
        // server answers itself.
        assert_eq!(JOB_KINDS[..9], QUEUED_JOB_KINDS);
        assert_eq!(JOB_KINDS[9..], ["ping", "stats"]);
    }

    #[test]
    fn validation_names_the_offending_field() {
        let cases = [
            ("{\"kind\":\"op\",\"nodes\":[\"out\"]}", "job.deck"),
            ("{\"kind\":\"op\",\"deck\":\"V1 a 0 1\"}", "job.nodes"),
            (
                "{\"kind\":\"op\",\"deck\":\"V1 a 0 1\",\"nodes\":[]}",
                "job.nodes",
            ),
            (
                "{\"kind\":\"dc_sweep\",\"deck\":\"V1 a 0 1\",\"source\":\"V1\",\
                 \"from\":0,\"to\":1,\"step\":-0.1,\"nodes\":[\"a\"]}",
                "job.step",
            ),
            (
                "{\"kind\":\"ac_sweep\",\"deck\":\"V1 a 0 1\",\"source\":\"V1\",\
                 \"fstart\":0.0,\"fstop\":10,\"points_per_decade\":10,\"nodes\":[\"a\"]}",
                "job.fstart",
            ),
            (
                "{\"kind\":\"ac_sweep\",\"deck\":\"V1 a 0 1\",\"source\":\"V1\",\
                 \"fstart\":100,\"fstop\":10,\"points_per_decade\":10,\"nodes\":[\"a\"]}",
                "job.fstop",
            ),
            (
                "{\"kind\":\"transient\",\"deck\":\"V1 a 0 1\",\"tstep\":2.0,\
                 \"tstop\":1.0,\"nodes\":[\"a\"]}",
                "job.tstep",
            ),
            (
                "{\"kind\":\"transient\",\"deck\":\"V1 a 0 1\",\"tstep\":0.0,\
                 \"tstop\":1.0,\"nodes\":[\"a\"]}",
                "job.tstep",
            ),
        ];
        for (body, expected_field) in cases {
            let err = Job::from_json(&job(body)).unwrap_err();
            let JobError::Invalid { reason } = &err else {
                panic!("expected Invalid for {body}, got {err:?}");
            };
            assert!(
                reason.contains(expected_field),
                "expected '{expected_field}' in '{reason}' for {body}"
            );
        }
    }

    #[test]
    fn malformed_deck_is_rejected_at_validation() {
        let body = Json::obj()
            .push("kind", "op")
            .push("deck", "R1 in out not_a_number")
            .push("nodes", Json::Arr(vec![Json::Str("out".into())]));
        let err = Job::from_json(&body).unwrap_err();
        assert!(
            matches!(&err, JobError::Invalid { reason } if reason.contains("job.deck")),
            "{err:?}"
        );
    }

    #[test]
    fn op_job_runs_and_renders_deterministically() {
        let body = Json::obj().push("kind", "op").push("deck", RC_DECK).push(
            "nodes",
            Json::Arr(vec![Json::Str("in".into()), Json::Str("out".into())]),
        );
        let parsed = Job::from_json(&body).unwrap();
        assert_eq!(parsed.kind(), "op");
        let a = parsed.run().unwrap().render();
        let b = Job::from_json(&body).unwrap().run().unwrap().render();
        assert_eq!(a, b, "same job renders byte-identically");
        let tree = Json::parse(&a).unwrap();
        let out = tree
            .get("nodes")
            .and_then(|n| n.get("out"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!((out - 1.0).abs() < 1e-9, "dc: capacitor open, out = in");
    }

    #[test]
    fn dc_sweep_job_reports_probed_traces() {
        let body = Json::obj()
            .push("kind", "dc_sweep")
            .push("deck", RC_DECK)
            .push("source", "V1")
            .push("from", 0.0)
            .push("to", 1.0)
            .push("step", 0.25)
            .push("nodes", Json::Arr(vec![Json::Str("out".into())]));
        let result = Job::from_json(&body).unwrap().run().unwrap();
        let sweep = result.get("sweep").and_then(Json::as_array).unwrap();
        assert_eq!(sweep.len(), 5);
        let trace = result
            .get("nodes")
            .and_then(|n| n.get("out"))
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(trace.len(), 5);
    }

    #[test]
    fn unknown_probe_node_is_an_exec_error() {
        let body = Json::obj()
            .push("kind", "op")
            .push("deck", RC_DECK)
            .push("nodes", Json::Arr(vec![Json::Str("nope".into())]));
        let err = Job::from_json(&body).unwrap().run().unwrap_err();
        assert!(
            matches!(&err, JobError::Exec { message } if message.contains("nope")),
            "{err:?}"
        );
    }

    #[test]
    fn ground_probe_reads_zero_on_every_circuit_kind() {
        let with_probe = |body: Json| {
            body.push("deck", RC_DECK).push(
                "nodes",
                Json::Arr(vec![Json::Str("0".into()), Json::Str("out".into())]),
            )
        };
        let bodies = [
            Json::obj().push("kind", "op"),
            Json::obj()
                .push("kind", "dc_sweep")
                .push("source", "V1")
                .push("from", 0.0)
                .push("to", 1.0)
                .push("step", 0.5),
            Json::obj()
                .push("kind", "ac_sweep")
                .push("source", "V1")
                .push("fstart", 1.0)
                .push("fstop", 100.0)
                .push("points_per_decade", 1),
            Json::obj()
                .push("kind", "transient")
                .push("tstep", 2e-5)
                .push("tstop", 1e-4),
            Json::obj()
                .push("kind", "transient")
                .push("tstep", 2e-5)
                .push("tstop", 1e-4)
                .push("method", "adaptive"),
        ];
        for body in bodies.map(with_probe) {
            let result = Job::from_json(&body).unwrap().run().unwrap();
            let ground = result.get("nodes").and_then(|n| n.get("0")).unwrap();
            let zeros: Vec<f64> = match ground.as_array() {
                Some(trace) => trace.iter().filter_map(Json::as_f64).collect(),
                None => match ground.get("magnitude") {
                    Some(mag) => mag
                        .as_array()
                        .unwrap()
                        .iter()
                        .filter_map(Json::as_f64)
                        .collect(),
                    None => vec![ground.as_f64().unwrap()],
                },
            };
            let points = ["sweep", "freqs", "times"]
                .iter()
                .find_map(|axis| result.get(axis).and_then(Json::as_array))
                .map_or(1, <[Json]>::len);
            assert_eq!(zeros.len(), points, "{}", body.render());
            assert!(zeros.iter().all(|&v| v == 0.0), "{}", result.render());
        }
    }

    #[test]
    fn log_grid_is_inclusive_and_monotonic() {
        let g = log_grid(1.0, 1000.0, 10);
        assert_eq!(g.len(), 31);
        assert_eq!(g[0], 1.0);
        assert_eq!(*g.last().unwrap(), 1000.0);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(log_grid(5.0, 5.0, 10), vec![5.0]);
    }

    #[test]
    fn adaptive_transient_job_reports_step_statistics() {
        let body = Json::obj()
            .push("kind", "transient")
            .push("deck", RC_DECK)
            .push("tstep", 2e-5)
            .push("tstop", 4e-3)
            .push("method", "adaptive")
            .push("nodes", Json::Arr(vec![Json::Str("out".into())]));
        let result = Job::from_json(&body).unwrap().run().unwrap();
        let steps = result.get("steps").and_then(Json::as_u64).unwrap();
        let times = result.get("times").and_then(Json::as_array).unwrap();
        assert_eq!(steps as usize + 1, times.len());
        assert!(result.get("rejects").and_then(Json::as_u64).is_some());
        // The default (and explicit "fixed") response keeps the
        // historical shape: no step-controller fields.
        for method in [None, Some("fixed")] {
            let mut fixed = Json::obj()
                .push("kind", "transient")
                .push("deck", RC_DECK)
                .push("tstep", 2e-5)
                .push("tstop", 4e-3);
            if let Some(m) = method {
                fixed = fixed.push("method", m);
            }
            let fixed = fixed.push("nodes", Json::Arr(vec![Json::Str("out".into())]));
            let result = Job::from_json(&fixed).unwrap().run().unwrap();
            assert!(result.get("steps").is_none());
            assert!(result.get("rejects").is_none());
        }
    }

    #[test]
    fn transient_method_and_options_are_validated() {
        let base = || {
            Json::obj()
                .push("kind", "transient")
                .push("deck", RC_DECK)
                .push("tstep", 2e-5)
                .push("tstop", 4e-3)
                .push("nodes", Json::Arr(vec![Json::Str("out".into())]))
        };
        let err = Job::from_json(&base().push("method", "euler")).unwrap_err();
        assert!(
            matches!(&err, JobError::Invalid { reason }
                if reason.contains("euler") && reason.contains("adaptive")),
            "{err:?}"
        );
        // Options without the adaptive method are a request bug.
        let err = Job::from_json(&base().push("options", Json::obj().push("lte_reltol", 1e-4)))
            .unwrap_err();
        assert!(
            matches!(&err, JobError::Invalid { reason } if reason.contains("adaptive")),
            "{err:?}"
        );
        // Unknown option keys are rejected by name.
        let err = Job::from_json(
            &base()
                .push("method", "adaptive")
                .push("options", Json::obj().push("reltol", 1e-4)),
        )
        .unwrap_err();
        assert!(
            matches!(&err, JobError::Invalid { reason }
                if reason.contains("job.options.reltol") && reason.contains("lte_reltol")),
            "{err:?}"
        );
        // Non-positive knob values are rejected by name.
        let err = Job::from_json(
            &base()
                .push("method", "adaptive")
                .push("options", Json::obj().push("max_step", 0.0)),
        )
        .unwrap_err();
        assert!(
            matches!(&err, JobError::Invalid { reason } if reason.contains("job.options.max_step")),
            "{err:?}"
        );
        // A max_step that forces more than MAX_TRAN_STEPS adaptive
        // steps is rejected by name.
        let err = Job::from_json(
            &base()
                .push("method", "adaptive")
                .push("options", Json::obj().push("max_step", 1e-15)),
        )
        .unwrap_err();
        assert!(
            matches!(&err, JobError::Invalid { reason }
                if reason.contains("job.options.max_step") && reason.contains("10000000")),
            "{err:?}"
        );
        // Valid knobs pass validation and thread into the solver.
        let ok = Job::from_json(
            &base()
                .push("method", "adaptive")
                .push("options", Json::obj().push("lte_reltol", 1e-4)),
        )
        .unwrap();
        assert!(ok.run().is_ok());
    }

    #[test]
    fn fig7_campaign_fields_are_validated() {
        // target_ci must be a number in (0, 1).
        for bad in ["0.0", "1.0", "-0.1", "\"tight\""] {
            let err = Job::from_json(&job(&format!("{{\"kind\":\"fig7\",\"target_ci\":{bad}}}")))
                .unwrap_err();
            assert!(
                matches!(&err, JobError::Invalid { reason } if reason.contains("job.target_ci")),
                "for {bad}: {err:?}"
            );
        }
        // max_devices without target_ci would be silently ignored.
        let err = Job::from_json(&job("{\"kind\":\"fig7\",\"max_devices\":5000}")).unwrap_err();
        assert!(
            matches!(&err, JobError::Invalid { reason }
                if reason.contains("job.max_devices") && reason.contains("job.target_ci")),
            "{err:?}"
        );
        // max_devices bounds.
        for bad in ["0", "2000000", "-5", "1.5"] {
            let err = Job::from_json(&job(&format!(
                "{{\"kind\":\"fig7\",\"target_ci\":0.02,\"max_devices\":{bad}}}"
            )))
            .unwrap_err();
            assert!(
                matches!(&err, JobError::Invalid { reason } if reason.contains("job.max_devices")),
                "for {bad}: {err:?}"
            );
        }
        // Valid shapes parse.
        assert!(matches!(
            Job::from_json(&job("{\"kind\":\"fig7\"}")).unwrap(),
            Job::Fig7 {
                target_ci: None,
                max_devices: None
            }
        ));
        assert!(matches!(
            Job::from_json(&job(
                "{\"kind\":\"fig7\",\"target_ci\":0.02,\"max_devices\":50000}"
            ))
            .unwrap(),
            Job::Fig7 {
                target_ci: Some(_),
                max_devices: Some(50_000)
            }
        ));
    }

    #[test]
    fn adaptive_fig7_job_reports_campaign_scalars() {
        let result = Job::from_json(&job("{\"kind\":\"fig7\",\"target_ci\":0.02}"))
            .unwrap()
            .run()
            .unwrap();
        let scalars = result.get("scalars").unwrap();
        for name in ["functional_yield", "devices", "rounds", "ci_half_width"] {
            assert!(scalars.get(name).is_some(), "missing scalar {name}");
        }
        assert_eq!(
            scalars.get("converged").and_then(Json::as_f64),
            Some(1.0),
            "0.02 is reachable well before the default cap"
        );
        // The parameterless job keeps its historical shape: no
        // campaign-sizing scalars.
        let fixed = Job::from_json(&job("{\"kind\":\"fig7\"}"))
            .unwrap()
            .run()
            .unwrap();
        assert!(fixed.get("scalars").unwrap().get("devices").is_none());
    }

    #[test]
    fn fig7_responses_match_their_golden_digests() {
        // FNV-1a 64 of the rendered result, equal at every
        // CARBON_THREADS: servebench's adaptive shape, a campaign that
        // converges early, one that ends on a partial chunk, and the
        // fixed campaign.
        let goldens = [
            (
                "{\"kind\":\"fig7\",\"target_ci\":0.001,\"max_devices\":4096}",
                0x42a5_f9ee_9c6b_c2cb_u64,
            ),
            (
                "{\"kind\":\"fig7\",\"target_ci\":0.02}",
                0x5b3c_52e8_6006_f0eb,
            ),
            (
                "{\"kind\":\"fig7\",\"target_ci\":0.001,\"max_devices\":1536}",
                0x0a2c_83f5_381d_f380,
            ),
            ("{\"kind\":\"fig7\"}", 0xe160_02e3_d042_bce2),
        ];
        for (body, golden) in goldens {
            let rendered = Job::from_json(&job(body)).unwrap().run().unwrap().render();
            let mut digest = carbon_json::Fnv::new();
            digest.write(rendered.as_bytes());
            assert_eq!(
                digest.finish(),
                golden,
                "{body}: digest {:016x}\n{rendered}",
                digest.finish()
            );
        }
    }

    #[test]
    fn econ_fields_are_validated() {
        let cases = [
            // node is required and must resolve.
            (
                "{\"kind\":\"econ_point\",\"area_cm2\":1,\"d0\":0.1,\"purity\":0.99}",
                "job.node",
            ),
            (
                "{\"kind\":\"econ_point\",\"node\":\"intel4\",\"area_cm2\":1,\"d0\":0.1,\
              \"purity\":0.99}",
                "cnt90",
            ),
            (
                "{\"kind\":\"econ_point\",\"node\":{\"name\":\"x\"},\"area_cm2\":1,\
              \"d0\":0.1,\"purity\":0.99}",
                "job.node.transistor_density",
            ),
            // Range errors carry the econ field names.
            (
                "{\"kind\":\"econ_point\",\"node\":\"cnt28\",\"area_cm2\":0,\"d0\":0.1,\
              \"purity\":0.99}",
                "econ.areas_cm2[0] = 0",
            ),
            (
                "{\"kind\":\"econ_point\",\"node\":\"cnt28\",\"area_cm2\":1,\"d0\":0.1,\
              \"purity\":1.5}",
                "econ.purities[0] = 1.5",
            ),
            // alpha pairs with the negative-binomial model only.
            (
                "{\"kind\":\"econ_point\",\"node\":\"cnt28\",\"area_cm2\":1,\"d0\":0.1,\
              \"purity\":0.99,\"alpha\":2}",
                "job.alpha",
            ),
            (
                "{\"kind\":\"econ_point\",\"node\":\"cnt28\",\"area_cm2\":1,\"d0\":0.1,\
              \"purity\":0.99,\"yield_model\":\"negative_binomial\"}",
                "job.alpha",
            ),
            (
                "{\"kind\":\"econ_point\",\"node\":\"cnt28\",\"area_cm2\":1,\"d0\":0.1,\
              \"purity\":0.99,\"yield_model\":\"weibull\"}",
                "job.yield_model",
            ),
            // Sizing fields are mutually exclusive, fig7-style.
            (
                "{\"kind\":\"econ_point\",\"node\":\"cnt28\",\"area_cm2\":1,\"d0\":0.1,\
              \"purity\":0.99,\"devices\":100,\"target_ci\":0.02}",
                "job.devices",
            ),
            (
                "{\"kind\":\"econ_point\",\"node\":\"cnt28\",\"area_cm2\":1,\"d0\":0.1,\
              \"purity\":0.99,\"max_devices\":100}",
                "job.max_devices",
            ),
            (
                "{\"kind\":\"econ_point\",\"node\":\"cnt28\",\"area_cm2\":1,\"d0\":0.1,\
              \"purity\":0.99,\"devices\":0}",
                "job.devices",
            ),
            // Campaign axes are typed arrays.
            (
                "{\"kind\":\"econ_campaign\",\"nodes\":\"cnt28\",\"areas_cm2\":[1],\
              \"d0\":[0.1],\"purities\":[0.99]}",
                "job.nodes",
            ),
            (
                "{\"kind\":\"econ_campaign\",\"nodes\":[\"cnt28\"],\"areas_cm2\":[1,\"x\"],\
              \"d0\":[0.1],\"purities\":[0.99]}",
                "job.areas_cm2[1]",
            ),
            (
                "{\"kind\":\"econ_campaign\",\"nodes\":[\"cnt28\"],\"areas_cm2\":[],\
              \"d0\":[0.1],\"purities\":[0.99]}",
                "job.areas_cm2",
            ),
        ];
        for (body, expected) in cases {
            let err = Job::from_json(&job(body)).unwrap_err();
            let JobError::Invalid { reason } = &err else {
                panic!("expected Invalid for {body}, got {err:?}");
            };
            assert!(
                reason.contains(expected),
                "expected '{expected}' in '{reason}' for {body}"
            );
        }
    }

    #[test]
    fn econ_budget_is_bounded_before_evaluation() {
        // 100 × 100 × 11 axes → 110,000 cells > MAX_ECON_CELLS.
        let axis: Vec<String> = (1..=100).map(|i| format!("{}.0", i)).collect();
        let body = format!(
            "{{\"kind\":\"econ_campaign\",\"nodes\":[\"cnt28\"],\"areas_cm2\":[{}],\
             \"d0\":[{}],\"purities\":[0.9,0.91,0.92,0.93,0.94,0.95,0.96,0.97,0.98,\
             0.99,0.999]}}",
            axis.join(","),
            axis.join(",")
        );
        let err = Job::from_json(&job(&body)).unwrap_err();
        assert!(
            matches!(&err, JobError::Invalid { reason } if reason.contains("cells")),
            "{err:?}"
        );
        // A modest grid with an extreme device budget is also rejected.
        let body = "{\"kind\":\"econ_campaign\",\"nodes\":[\"cnt28\"],\
                    \"areas_cm2\":[1,2],\"d0\":[0.1],\"purities\":[0.99,0.999],\
                    \"devices\":19000000}";
        let err = Job::from_json(&job(body)).unwrap_err();
        assert!(
            matches!(&err, JobError::Invalid { reason } if reason.contains("would sample")),
            "{err:?}"
        );
    }

    #[test]
    fn econ_point_runs_and_renders_the_cost_accounting() {
        let body = "{\"kind\":\"econ_point\",\"node\":\"cnt28\",\"area_cm2\":1.0,\
                    \"d0\":0.2,\"purity\":0.999,\"devices\":512}";
        let parsed = Job::from_json(&job(body)).unwrap();
        assert_eq!(parsed.kind(), "econ_point");
        let a = parsed.run().unwrap().render();
        let b = Job::from_json(&job(body)).unwrap().run().unwrap().render();
        assert_eq!(a, b, "same econ job renders byte-identically");
        let tree = Json::parse(&a).unwrap();
        let point = tree.get("point").expect("point object");
        for field in [
            "device_yield",
            "good_dies_per_wafer",
            "cost_per_good_die",
            "carbon_per_good_die",
        ] {
            assert!(point.get(field).is_some(), "missing {field} in {a}");
        }
        let cost = point
            .get("cost_per_good_die")
            .and_then(Json::as_f64)
            .unwrap();
        assert!(cost > 0.0, "cnt28 at 99.9 % purity prices its dies: {cost}");
        // A hopeless cell renders null costs (infinite → JSON null).
        let hopeless = "{\"kind\":\"econ_point\",\"node\":\"cnt90\",\"area_cm2\":1e-6,\
                        \"d0\":0.0,\"purity\":1.0,\"devices\":64}";
        let rendered = Job::from_json(&job(hopeless))
            .unwrap()
            .run()
            .unwrap()
            .render();
        assert!(
            rendered.contains("\"cost_per_good_die\":null"),
            "{rendered}"
        );
    }

    #[test]
    fn econ_campaign_reports_cells_points_and_summary() {
        let body = "{\"kind\":\"econ_campaign\",\"nodes\":[\"cnt90\",\"cnt28\"],\
                    \"areas_cm2\":[0.5,1.0],\"d0\":[0.2],\
                    \"purities\":[0.99,0.999],\"devices\":256,\"seed\":7}";
        let result = Job::from_json(&job(body)).unwrap().run().unwrap();
        assert_eq!(result.get("cells").and_then(Json::as_u64), Some(8));
        let points = result.get("points").and_then(Json::as_array).unwrap();
        assert_eq!(points.len(), 8);
        // Grid order: purity fastest — adjacent points share node/area.
        assert_eq!(points[0].get("purity").and_then(Json::as_f64), Some(0.99));
        assert_eq!(points[1].get("purity").and_then(Json::as_f64), Some(0.999));
        let summary = result.get("summary").expect("summary object");
        assert_eq!(summary.get("cells").and_then(Json::as_u64), Some(8));
        assert!(summary.get("best_index").is_some());
        // The adaptive mode converges and reports its sampling size.
        let adaptive = "{\"kind\":\"econ_campaign\",\"nodes\":[\"cnt28\"],\
                        \"areas_cm2\":[1.0],\"d0\":[0.2],\"purities\":[0.99],\
                        \"target_ci\":0.02}";
        let result = Job::from_json(&job(adaptive)).unwrap().run().unwrap();
        let sampled = result
            .get("points")
            .and_then(Json::as_array)
            .and_then(|p| p[0].get("devices_sampled"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(sampled > 0 && sampled <= DEFAULT_ECON_MAX_DEVICES);
    }

    #[test]
    fn cancelled_econ_campaign_maps_to_timeout_variant() {
        let body = "{\"kind\":\"econ_campaign\",\"nodes\":[\"cnt28\"],\
                    \"areas_cm2\":[1.0],\"d0\":[0.1],\"purities\":[0.99],\
                    \"devices\":100000}";
        let parsed = Job::from_json(&job(body)).unwrap();
        let token = carbon_runtime::CancelToken::new();
        token.cancel();
        let err = carbon_runtime::cancel::scope(&token, || parsed.run()).unwrap_err();
        assert!(matches!(err, JobError::Cancelled { .. }), "{err:?}");
    }

    #[test]
    fn cancelled_solve_maps_to_timeout_variant() {
        let body = Json::obj()
            .push("kind", "transient")
            .push("deck", RC_DECK)
            .push("tstep", 1e-6)
            .push("tstop", 1e-2)
            .push("nodes", Json::Arr(vec![Json::Str("out".into())]));
        let parsed = Job::from_json(&body).unwrap();
        let token = carbon_runtime::CancelToken::new();
        token.cancel();
        let err = carbon_runtime::cancel::scope(&token, || parsed.run()).unwrap_err();
        assert!(matches!(err, JobError::Cancelled { .. }), "{err:?}");
    }
}
