//! Layer probes: per-call costs of single layers, timed from outside on
//! inputs drawn from the seed's `mcf_m` Table IV stream (and every Table IV
//! profile for the trace generator). Each traced run measures all of them,
//! so no layer cost reads 0 only because a workload leaves the layer idle.

use crate::measure::ns_per_call;
use crate::{Outcome, OUT_DIR};
use reram_array::{ArrayGeometry, ArrayModel};
use reram_core::{Scheme, WriteModel};
use reram_durable::{DurableConfig, DurableLog, REC_ENTRY};
use reram_mem::FnwCodec;
use reram_obs::Obs;
use reram_serve::proto::{Frame, Request, Response};
use reram_surrogate::{Pattern, SurrogateEstimator};
use reram_workloads::trace::LINE_BYTES;
use reram_workloads::{AccessKind, BenchProfile, TraceGenerator};
use std::hint::black_box;
use std::sync::Arc;

/// The committed surrogate artifact the serve path loads.
pub const SURROGATE_ARTIFACT: &str = "ci/surrogate_model.json";

/// Writes drawn per probe.
const WRITES: usize = 20_000;

/// The first `n` writes of the seed's `mcf_m` stream: `(line, old, new)`.
#[must_use]
pub fn mcf_writes(seed: u64, n: usize) -> Vec<(u64, [u8; LINE_BYTES], [u8; LINE_BYTES])> {
    let mcf = BenchProfile::by_name("mcf_m").expect("table IV");
    let mut gen = TraceGenerator::new(mcf, seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        if let AccessKind::Write { line, old, new, .. } = gen.next_access().kind {
            out.push((line, *old, *new));
        }
    }
    out
}

/// Measures every probe into `o`'s metrics. A probe that cannot run (the
/// artifact or the scratch log missing) records a check failure.
pub fn measure(o: &mut Outcome, seed: u64) {
    let writes = mcf_writes(seed, WRITES);

    // workloads: one access from each Table IV profile's generator.
    let mut gens: Vec<TraceGenerator> = BenchProfile::table_iv()
        .into_iter()
        .map(|p| TraceGenerator::new(p, seed))
        .collect();
    let n_gen = gens.len();
    let next_access = ns_per_call(n_gen * 20_000, |i| {
        black_box(gens[i % n_gen].next_access());
    });
    o.metrics.put("workloads.next_access_ns", next_access, "ns");

    // core: the write planner on Flip-N-Write-encoded transitions, as the
    // simulator calls it.
    let wm = WriteModel::new(ArrayModel::paper_baseline(), Scheme::UdrvrPr);
    let geom = wm.model().geometry();
    let fnw = FnwCodec::paper();
    let encoded: Vec<_> = writes
        .iter()
        .map(|(line, old, new)| {
            let w = fnw.encode(old, &[false; 64], new);
            let row = (*line % geom.size() as u64) as usize;
            let col = ((*line / geom.size() as u64) % geom.cols_per_group() as u64) as usize;
            (row, col, w)
        })
        .collect();
    let plan = ns_per_call(encoded.len(), |i| {
        let (row, col, w) = &encoded[i];
        black_box(wm.plan_line_write_with_data(*row, *col, &w.resets, &w.sets, Some(&w.stored)));
    });
    o.metrics.put("core.plan_write_ns", plan, "ns");

    // array: building the 128×128 network the calibration sweep solves.
    let model = ArrayModel::paper_baseline().with_geometry(ArrayGeometry::new(128, 8));
    let to_cp = ns_per_call(200, |i| {
        let row = (writes[i].0 % 128) as usize;
        black_box(model.to_crosspoint(row, &[i % 128], &[3.0]));
    });
    o.metrics.put("array.to_crosspoint_us", to_cp / 1e3, "us");

    // serve.proto: encode and decode the stream's request and response
    // frames.
    let frames: Vec<Frame> = writes
        .iter()
        .take(5_000)
        .enumerate()
        .flat_map(|(k, (line, _, new))| {
            let id = k as u64 + 1;
            [
                Request::ReadLine { line: *line }.to_frame(id),
                Response::ReadOk {
                    data: Box::new(*new),
                }
                .to_frame(id),
                Request::WriteLine {
                    line: *line,
                    data: Box::new(*new),
                }
                .to_frame(id),
                Response::WriteOk {
                    attempts: 1,
                    degraded: false,
                }
                .to_frame(id),
            ]
        })
        .collect();
    let encode = ns_per_call(frames.len(), |i| {
        black_box(frames[i].encode());
    });
    let bytes: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    let decode = ns_per_call(bytes.len(), |i| {
        black_box(Frame::decode_body(&bytes[i][4..]).expect("own frame decodes"));
    });
    o.metrics.put("serve.proto.encode_ns", encode, "ns");
    o.metrics.put("serve.proto.decode_ns", decode, "ns");

    // surrogate: the lookup the shard makes per write.
    match reram_surrogate::load(std::path::Path::new(SURROGATE_ARTIFACT)) {
        Ok(model) => {
            let est = SurrogateEstimator::new(Arc::new(model), Scheme::UdrvrPr)
                .expect("artifact calibrates udrvr_pr");
            let (size, counts) = (est.model().size, est.model().counts);
            let keys: Vec<(usize, usize)> = writes
                .iter()
                .map(|(line, old, new)| {
                    let resets: u32 = old
                        .iter()
                        .zip(new)
                        .map(|(a, b)| (a & !b).count_ones())
                        .sum();
                    let count = (resets as usize).div_ceil(LINE_BYTES).clamp(1, counts);
                    ((*line % size as u64) as usize, count)
                })
                .collect();
            let lookup = ns_per_call(keys.len(), |i| {
                black_box(est.estimate_count(keys[i].0, keys[i].1, Pattern::Even));
            });
            o.metrics.put("surrogate.estimate_ns", lookup, "ns");
        }
        Err(e) => o.check(
            "probe",
            vec![format!("cannot load {SURROGATE_ARTIFACT}: {e}")],
        ),
    }

    // durable: staged appends of the stream's write records, two per batch
    // (one per client of serve-mixed).
    let dir = std::path::Path::new(OUT_DIR).join("probe-wal");
    let _ = std::fs::remove_dir_all(&dir);
    match DurableLog::open(DurableConfig::new(&dir, 8 + LINE_BYTES), &Obs::off(), None) {
        Ok((mut log, _)) => {
            let payloads: Vec<Vec<u8>> = writes
                .iter()
                .map(|(line, _, new)| {
                    let mut p = line.to_le_bytes().to_vec();
                    p.extend_from_slice(new);
                    p
                })
                .collect();
            let mut failed = false;
            let append = ns_per_call(payloads.len() / 2, |i| {
                let recs = [
                    (REC_ENTRY, payloads[2 * i].as_slice()),
                    (REC_ENTRY, payloads[2 * i + 1].as_slice()),
                ];
                failed |= log.append_batch(&recs).is_err();
            });
            drop(log);
            if failed {
                o.check("probe", vec!["a scratch WAL append failed".into()]);
            }
            o.metrics.put("durable.append_us", append / 1e3, "us");
        }
        Err(e) => o.check("probe", vec![format!("cannot open the scratch WAL: {e}")]),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
