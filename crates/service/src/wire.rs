//! The line-delimited JSON wire protocol of `plan_service`.
//!
//! One request per line, one response per line, over a plain TCP stream.
//! Requests are JSON objects dispatched on `"op"`:
//!
//! * `{"op":"ping"}` → `{"ok":true,"pong":true}`
//! * `{"op":"stats"}` → `{"ok":true, ...counter fields...}`
//! * `{"op":"shutdown"}` → `{"ok":true,"shutting_down":true}` and the
//!   server stops accepting connections.
//! * `{"op":"plan", ...}` → a plan response (below).
//!
//! A plan request names a preset topology and the experiment knobs:
//!
//! ```json
//! {"op":"plan","tenant":"alice","system":"a100","nodes":2,
//!  "axes":[8,4],"reduction":[0],"algo":"ring","mode":"measure",
//!  "cost_model":"alpha-beta","bytes_per_device":1e9,"repeats":2}
//! ```
//!
//! `system` is one of `a100` / `v100` / `v100-pcie` (with `nodes`),
//! `figure2a`, or `rack` (with `racks`, `nodes_per_rack`, `gpus`, and an
//! optional `oversubscription` ratio); a size of zero is a `protocol` error
//! naming the field. Optional knobs set the request's session description
//! ([`p2_core::P2Builder`]) and plan size: `max_program_size`, `noise`,
//! `seed`, `repeats`, `keep_top`, `prune_slack`, `top_k`, `shortlist` (with
//! `"mode":"shortlist"`). `null` leaves a knob unset; a knob of the wrong
//! type is a `protocol` error naming it, never a fallback to its default.
//! A `max_program_size` above [`MAX_PROGRAM_SIZE`](crate::MAX_PROGRAM_SIZE)
//! decodes, and the planner refuses it with a `limit` error.
//! The response carries the plan plus its request telemetry:
//!
//! ```json
//! {"ok":true,"source":"warm","fingerprint":"…32 hex…","latency_us":120,
//!  "queue_depth":0,"label":"…","entries":[…]}
//! ```
//!
//! Errors come back as `{"ok":false,"error":"…","kind":"…"}` and never
//! close the connection; parse failures of one line only fail that line.

use p2_core::{RunMode, P2};
use p2_cost::{CostModelKind, NcclAlgo};
use p2_topology::presets;

use crate::error::ServiceError;
use crate::json::{Json, JsonObject};
use crate::planner::{PlanResponse, PlannerStats};
use crate::request::{PlanRequest, DEFAULT_TOP_K};

/// A parsed wire request.
#[derive(Debug, Clone)]
pub enum WireRequest {
    /// Liveness probe.
    Ping,
    /// Counter snapshot.
    Stats,
    /// Stop the server.
    Shutdown,
    /// Plan a request on behalf of a tenant.
    Plan {
        /// The tenant the fair scheduler accounts this request to.
        tenant: String,
        /// The decoded plan request.
        request: Box<PlanRequest>,
    },
}

/// Reads an optional field through `read`. Absent and `null` are unset; a
/// present value `read` rejects is a protocol error naming the field, never
/// a silent fallback to the default (which would plan a different request).
fn get_field<'a, T>(
    json: &'a Json,
    key: &str,
    expected: &str,
    read: impl Fn(&'a Json) -> Option<T>,
) -> Result<Option<T>, ServiceError> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(value) => read(value)
            .map(Some)
            .ok_or_else(|| ServiceError::Protocol(format!("`{key}` must be {expected}"))),
    }
}

fn get_u64(json: &Json, key: &str) -> Result<Option<u64>, ServiceError> {
    get_field(json, key, "a non-negative integer", Json::as_u64)
}

fn get_usize(json: &Json, key: &str) -> Result<Option<usize>, ServiceError> {
    Ok(get_u64(json, key)?.map(|v| v as usize))
}

fn get_f64(json: &Json, key: &str) -> Result<Option<f64>, ServiceError> {
    get_field(json, key, "a number", Json::as_f64)
}

fn get_str<'a>(json: &'a Json, key: &str) -> Result<Option<&'a str>, ServiceError> {
    get_field(json, key, "a string", Json::as_str)
}

fn get_list(json: &Json, key: &str) -> Result<Option<Vec<usize>>, ServiceError> {
    get_field(json, key, "an array of non-negative integers", |value| {
        value
            .as_arr()?
            .iter()
            .map(|item| item.as_u64().map(|v| v as usize))
            .collect()
    })
}

/// Reads a preset's size field, `default` when unset. Zero is a protocol
/// error naming the field: the presets assert their sizes are positive.
fn get_size(json: &Json, key: &str, default: usize) -> Result<usize, ServiceError> {
    match get_usize(json, key)?.unwrap_or(default) {
        0 => Err(ServiceError::Protocol(format!("`{key}` must be positive"))),
        size => Ok(size),
    }
}

fn parse_system(json: &Json) -> Result<p2_topology::SystemTopology, ServiceError> {
    let name = get_str(json, "system")?
        .ok_or_else(|| ServiceError::Protocol("`system` is required".to_string()))?;
    let nodes = get_size(json, "nodes", 2)?;
    match name {
        "a100" => Ok(presets::a100_system(nodes)),
        "v100" => Ok(presets::v100_system(nodes)),
        "v100-pcie" => Ok(presets::v100_pcie_system(nodes)),
        "figure2a" => Ok(presets::figure2a_system()),
        "rack" => {
            let racks = get_size(json, "racks", 2)?;
            let nodes_per_rack = get_size(json, "nodes_per_rack", 2)?;
            let gpus = get_size(json, "gpus", 4)?;
            match get_f64(json, "oversubscription")? {
                Some(ratio) if !(ratio.is_finite() && ratio >= 1.0) => Err(ServiceError::Protocol(
                    "`oversubscription` must be a number >= 1".to_string(),
                )),
                Some(ratio) => Ok(presets::rack_node_gpu_system_oversubscribed(
                    racks,
                    nodes_per_rack,
                    gpus,
                    ratio,
                )),
                None => Ok(presets::rack_node_gpu_system(racks, nodes_per_rack, gpus)),
            }
        }
        other => Err(ServiceError::Protocol(format!(
            "unknown system preset `{other}` (expected a100, v100, v100-pcie, figure2a, or rack)"
        ))),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// [`ServiceError::Protocol`] describing the first problem found.
pub fn parse_request(line: &str) -> Result<WireRequest, ServiceError> {
    let json = Json::parse(line).map_err(ServiceError::Protocol)?;
    let op = get_str(&json, "op")?
        .ok_or_else(|| ServiceError::Protocol("`op` is required".to_string()))?;
    match op {
        "ping" => Ok(WireRequest::Ping),
        "stats" => Ok(WireRequest::Stats),
        "shutdown" => Ok(WireRequest::Shutdown),
        "plan" => {
            let system = parse_system(&json)?;
            let axes = get_list(&json, "axes")?
                .ok_or_else(|| ServiceError::Protocol("`axes` is required".to_string()))?;
            let reduction = get_list(&json, "reduction")?
                .ok_or_else(|| ServiceError::Protocol("`reduction` is required".to_string()))?;
            let mut session = P2::builder(system)
                .parallelism_axes(axes)
                .reduction_axes(reduction);
            if let Some(algo) = get_str(&json, "algo")? {
                session = session.algo(match algo {
                    "ring" => NcclAlgo::Ring,
                    "tree" => NcclAlgo::Tree,
                    other => {
                        return Err(ServiceError::Protocol(format!(
                            "unknown algo `{other}` (expected ring or tree)"
                        )))
                    }
                });
            }
            if let Some(kind) = get_str(&json, "cost_model")? {
                let kind = kind
                    .parse::<CostModelKind>()
                    .map_err(|_| ServiceError::Protocol(format!("unknown cost model `{kind}`")))?;
                session = session.cost_model_kind(kind);
            }
            if let Some(mode) = get_str(&json, "mode")? {
                session = session.mode(match mode {
                    "measure" => RunMode::Measure,
                    "predict" | "predict-only" => RunMode::PredictOnly,
                    "shortlist" => {
                        let n = get_usize(&json, "shortlist")?.ok_or_else(|| {
                            ServiceError::Protocol(
                                "`shortlist` length is required with mode=shortlist".to_string(),
                            )
                        })?;
                        RunMode::Shortlist(n)
                    }
                    other => {
                        return Err(ServiceError::Protocol(format!(
                            "unknown mode `{other}` (expected measure, predict, or shortlist)"
                        )))
                    }
                });
            }
            if let Some(bytes) = get_f64(&json, "bytes_per_device")? {
                session = session.bytes_per_device(bytes);
            }
            if let Some(noise) = get_f64(&json, "noise")? {
                session = session.noise(noise);
            }
            if let Some(seed) = get_u64(&json, "seed")? {
                session = session.seed(seed);
            }
            if let Some(size) = get_usize(&json, "max_program_size")? {
                session = session.max_program_size(size);
            }
            if let Some(repeats) = get_usize(&json, "repeats")? {
                session = session.repeats(repeats);
            }
            if let Some(keep_top) = get_usize(&json, "keep_top")? {
                session = session.keep_top(keep_top);
            }
            if let Some(slack) = get_f64(&json, "prune_slack")? {
                session = session.prune_slack(slack);
            }
            let top_k = get_usize(&json, "top_k")?.unwrap_or(DEFAULT_TOP_K);
            let request = PlanRequest { session, top_k };
            let tenant = get_str(&json, "tenant")?.unwrap_or("default").to_string();
            Ok(WireRequest::Plan {
                tenant,
                request: Box::new(request),
            })
        }
        other => Err(ServiceError::Protocol(format!("unknown op `{other}`"))),
    }
}

/// Renders a successful plan response line.
pub fn encode_plan_response(response: &PlanResponse) -> String {
    let entries: Vec<Json> = response
        .plan
        .entries
        .iter()
        .map(|entry| {
            JsonObject::new()
                .push("matrix", Json::Str(entry.matrix.clone()))
                .push("signature", Json::Str(entry.signature.clone()))
                .push("program", Json::Str(entry.program.clone()))
                .push("predicted_seconds", Json::Num(entry.predicted_seconds))
                .push("measured_seconds", Json::Num(entry.measured_seconds))
                .build()
        })
        .collect();
    JsonObject::new()
        .push("ok", Json::Bool(true))
        .push("source", Json::Str(response.source.as_str().to_string()))
        .push("fingerprint", Json::Str(response.fingerprint.to_string()))
        .push("latency_us", Json::Num(response.latency.as_micros() as f64))
        .push("queue_depth", Json::Num(response.queue_depth as f64))
        .push("label", Json::Str(response.plan.label.clone()))
        .push(
            "placements",
            Json::Num(response.plan.stats.placements as f64),
        )
        .push("programs", Json::Num(response.plan.stats.programs as f64))
        .push("entries", Json::Arr(entries))
        .build()
        .to_string()
}

/// Renders a stats response line.
pub fn encode_stats(stats: &PlannerStats) -> String {
    JsonObject::new()
        .push("ok", Json::Bool(true))
        .push("requests", Json::Num(stats.requests as f64))
        .push("warm_hits", Json::Num(stats.warm_hits as f64))
        .push("disk_hits", Json::Num(stats.disk_hits as f64))
        .push("coalesced", Json::Num(stats.coalesced as f64))
        .push("syntheses", Json::Num(stats.syntheses as f64))
        .push("batches", Json::Num(stats.batches as f64))
        .push("rejected", Json::Num(stats.rejected as f64))
        .push("store_errors", Json::Num(stats.store_errors as f64))
        .push("queue_depth", Json::Num(stats.queue_depth as f64))
        .push("peak_queue_depth", Json::Num(stats.peak_queue_depth as f64))
        .push("lru_len", Json::Num(stats.lru_len as f64))
        .push("evictions", Json::Num(stats.evictions as f64))
        .push("size_evictions", Json::Num(stats.size_evictions as f64))
        .push("ttl_evictions", Json::Num(stats.ttl_evictions as f64))
        .push("resident_bytes", Json::Num(stats.resident_bytes as f64))
        .push("disk_misreads", Json::Num(stats.disk_misreads as f64))
        .push("snapshot_loads", Json::Num(stats.snapshot_loads as f64))
        .push("snapshot_saves", Json::Num(stats.snapshot_saves as f64))
        .push(
            "snapshot_load_micros",
            Json::Num(stats.snapshot_load_micros as f64),
        )
        .push(
            "snapshot_save_micros",
            Json::Num(stats.snapshot_save_micros as f64),
        )
        .push("warm_states", Json::Num(stats.warm_states as f64))
        .build()
        .to_string()
}

/// Renders an error response line, tagging the error kind for clients that
/// branch on it (`overloaded` → back off, `protocol` or `limit` → fix the
/// request, `internal` → the planner recovered; retry).
pub fn encode_error(error: &ServiceError) -> String {
    let kind = match error {
        ServiceError::Pipeline(_) => "pipeline",
        ServiceError::Overloaded { .. } => "overloaded",
        ServiceError::ShuttingDown => "shutting_down",
        ServiceError::Store(_) => "store",
        ServiceError::Protocol(_) => "protocol",
        ServiceError::Limit(_) => "limit",
        ServiceError::Internal(_) => "internal",
    };
    JsonObject::new()
        .push("ok", Json::Bool(false))
        .push("kind", Json::Str(kind.to_string()))
        .push("error", Json::Str(error.to_string()))
        .build()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_requests_decode_to_the_same_fingerprint_as_native_ones() {
        let line = r#"{"op":"plan","tenant":"alice","system":"a100","nodes":2,
                       "axes":[8,4],"reduction":[0],"algo":"ring",
                       "bytes_per_device":1e9,"repeats":2,"seed":7}"#
            .replace('\n', " ");
        let parsed = parse_request(&line).unwrap();
        let WireRequest::Plan { tenant, request } = parsed else {
            panic!("expected a plan request");
        };
        assert_eq!(tenant, "alice");
        let native = PlanRequest::new(presets::a100_system(2), vec![8, 4], vec![0])
            .with_bytes_per_device(1.0e9)
            .with_repeats(2)
            .with_seed(7);
        assert_eq!(request.fingerprint(), native.fingerprint());
    }

    #[test]
    fn shortlist_mode_and_rack_preset_decode() {
        let line = r#"{"op":"plan","system":"rack","racks":2,"nodes_per_rack":2,"gpus":4,
                       "axes":[4,4],"reduction":[0],"mode":"shortlist","shortlist":10}"#
            .replace('\n', " ");
        let WireRequest::Plan { request, .. } = parse_request(&line).unwrap() else {
            panic!("expected a plan request");
        };
        let session = request.session().unwrap();
        assert_eq!(session.mode(), RunMode::Shortlist(10));
        assert_eq!(session.config().system.num_devices(), 16);
    }

    #[test]
    fn control_ops_decode() {
        assert!(matches!(
            parse_request(r#"{"op":"ping"}"#).unwrap(),
            WireRequest::Ping
        ));
        assert!(matches!(
            parse_request(r#"{"op":"stats"}"#).unwrap(),
            WireRequest::Stats
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            WireRequest::Shutdown
        ));
    }

    #[test]
    fn bad_requests_fail_with_protocol_errors() {
        for bad in [
            "not json",
            r#"{"op":"warp"}"#,
            r#"{"op":"plan","system":"quantum","axes":[2],"reduction":[0]}"#,
            r#"{"op":"plan","system":"a100","reduction":[0]}"#,
            r#"{"op":"plan","system":"a100","axes":[8,4],"reduction":[0],"mode":"shortlist"}"#,
            r#"{"op":"plan","system":"a100","axes":[8,-4],"reduction":[0]}"#,
            r#"{"op":"plan","system":"rack","axes":[4,4],"reduction":[0],"oversubscription":0.5}"#,
        ] {
            assert!(
                matches!(parse_request(bad), Err(ServiceError::Protocol(_))),
                "{bad} should fail"
            );
        }
    }

    #[test]
    fn mistyped_optional_fields_are_protocol_errors_and_null_is_unset() {
        let a100 = r#""system":"a100","axes":[8,4],"reduction":[0]"#;
        let rack = r#""system":"rack","axes":[4,4],"reduction":[0]"#;
        let shortlist = r#""system":"a100","axes":[8,4],"reduction":[0],"mode":"shortlist""#;
        // (request without the field, field, a value of the wrong type)
        let cases = [
            (a100, "nodes", r#""2""#),
            (rack, "racks", "2.5"),
            (rack, "nodes_per_rack", r#""2""#),
            (rack, "gpus", "-4"),
            (rack, "oversubscription", r#""4""#),
            (a100, "algo", "5"),
            (a100, "cost_model", "true"),
            (a100, "mode", "1"),
            (shortlist, "shortlist", r#""10""#),
            (a100, "bytes_per_device", r#""1e9""#),
            (a100, "noise", r#""0""#),
            (a100, "seed", "-1"),
            (a100, "max_program_size", "[5]"),
            (a100, "repeats", r#""2""#),
            (a100, "keep_top", "1.5"),
            (a100, "prune_slack", "true"),
            (a100, "top_k", r#""3""#),
            (a100, "tenant", "7"),
        ];
        let decode = |line: &str| {
            parse_request(line).map(|parsed| match parsed {
                WireRequest::Plan { tenant, request } => (tenant, request.fingerprint()),
                other => panic!("{line} decoded to {other:?}"),
            })
        };
        for (base, field, mistyped) in cases {
            let line = format!(r#"{{"op":"plan",{base},"{field}":{mistyped}}}"#);
            match decode(&line) {
                Err(ServiceError::Protocol(message)) => assert!(
                    message.contains(&format!("`{field}`")),
                    "{line}: the error must name the field, got {message:?}"
                ),
                other => panic!("{line} must be a protocol error, got {other:?}"),
            }
            let null = format!(r#"{{"op":"plan",{base},"{field}":null}}"#);
            let omitted = format!(r#"{{"op":"plan",{base}}}"#);
            assert_eq!(decode(&null), decode(&omitted), "{field}: null means unset");
        }
    }

    #[test]
    fn zero_preset_sizes_are_protocol_errors_naming_the_field() {
        let a100 = r#""system":"a100","axes":[8],"reduction":[0]"#;
        let rack = r#""system":"rack","axes":[4],"reduction":[0]"#;
        for (base, field) in [
            (a100, "nodes"),
            (rack, "racks"),
            (rack, "nodes_per_rack"),
            (rack, "gpus"),
        ] {
            let line = format!(r#"{{"op":"plan",{base},"{field}":0}}"#);
            match parse_request(&line) {
                Err(ServiceError::Protocol(message)) => assert!(
                    message.contains(&format!("`{field}`")),
                    "{line}: the error must name the field, got {message:?}"
                ),
                other => panic!("{line} must be a protocol error, got {other:?}"),
            }
        }
    }

    #[test]
    fn error_lines_tag_their_kind() {
        let line = encode_error(&ServiceError::Overloaded {
            queue_depth: 64,
            capacity: 64,
        });
        let json = Json::parse(&line).unwrap();
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(json.get("kind").and_then(Json::as_str), Some("overloaded"));
        for (error, kind) in [
            (ServiceError::Limit("size".into()), "limit"),
            (ServiceError::Internal("panic".into()), "internal"),
        ] {
            let json = Json::parse(&encode_error(&error)).unwrap();
            assert_eq!(json.get("kind").and_then(Json::as_str), Some(kind));
        }
    }
}
