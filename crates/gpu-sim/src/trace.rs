//! Timeline export in the Chrome trace-event format.
//!
//! `Device::records()` holds the full kernel timeline of a run;
//! [`chrome_trace`] serializes it into the JSON array format understood
//! by `chrome://tracing`, Perfetto (<https://ui.perfetto.dev>), and
//! Speedscope — so a simulated selection run can be inspected with the
//! same tooling people use for real GPU profiles.
//!
//! Each kernel becomes a complete event (`"ph": "X"`) on a per-origin
//! track; launch overheads appear as separate events on an "overhead"
//! track, making the dynamic-parallelism latency savings (§IV-E)
//! directly visible.
//!
//! Counter timeseries (bucket occupancy, atomic-collision rate,
//! buffer-pool hit rate — sampled by the observability layer above this
//! crate) ride along as Perfetto counter tracks: `"ph": "C"` events via
//! [`chrome_trace_with_counters`].
//!
//! Serialization is a direct JSON writer (the trace subset only needs
//! objects, arrays, strings, and numbers), so the crate carries no
//! serialization dependency.

use crate::device::{Device, LaunchOrigin};

/// One Chrome trace event (the subset of fields the viewers need).
#[derive(Debug)]
pub struct TraceEvent {
    /// Event name (kernel name, or `"launch"` for overheads).
    pub name: String,
    /// Category: `"kernel"`, `"launch-overhead"`, or `"fault"`.
    pub cat: String,
    /// Phase: `"X"` = complete event with duration.
    pub ph: String,
    /// Start timestamp in microseconds.
    pub ts: f64,
    /// Duration in microseconds.
    pub dur: f64,
    /// Process id (constant; one simulated device).
    pub pid: u32,
    /// Thread id: 0 = host-launched kernels, 1 = device-launched.
    pub tid: u32,
    /// Extra details shown in the viewer's detail pane.
    pub args: TraceArgs,
}

/// Detail payload for one kernel event.
#[derive(Debug)]
pub struct TraceArgs {
    pub blocks: u32,
    pub threads_per_block: u32,
    pub bottleneck: String,
    pub global_bytes: u64,
    pub shared_atomic_warp_ops: u64,
    pub global_atomic_ops: u64,
    /// Injected-fault description, when the kernel launch failed. A
    /// faulted launch carries the annotation on *both* its events (the
    /// launch-overhead event and the kernel event), so filtering either
    /// track in the viewer still surfaces the fault.
    pub fault: Option<String>,
    /// SIMT-sanitizer findings attributed to this kernel (0 when clean
    /// or when the sanitizer was off; only written to JSON when > 0).
    /// Counts only *recorded* findings — dropped ones are reported
    /// separately in [`TraceArgs::sanitizer_truncated`], never folded in.
    pub sanitizer_findings: u64,
    /// Findings the sanitizer dropped after its per-kernel cap (only
    /// written to JSON when > 0).
    pub sanitizer_truncated: u64,
}

/// Build the trace events for everything on the device timeline.
pub fn trace_events(device: &Device) -> Vec<TraceEvent> {
    let mut events = Vec::with_capacity(device.records().len() * 2);
    for rec in device.records() {
        let tid = match rec.origin {
            LaunchOrigin::Host => 0,
            LaunchOrigin::Device => 1,
        };
        let fault = rec.fault.as_ref().map(|f| f.to_string());
        // launch overhead precedes the kernel
        events.push(TraceEvent {
            name: format!("launch {}", rec.name),
            cat: "launch-overhead".to_string(),
            ph: "X".to_string(),
            ts: (rec.start - rec.launch_overhead).as_us(),
            dur: rec.launch_overhead.as_us(),
            pid: 1,
            tid,
            args: TraceArgs {
                blocks: rec.config.blocks,
                threads_per_block: rec.config.threads_per_block,
                bottleneck: "launch".to_string(),
                global_bytes: 0,
                shared_atomic_warp_ops: 0,
                global_atomic_ops: 0,
                fault: fault.clone(),
                sanitizer_findings: 0,
                sanitizer_truncated: 0,
            },
        });
        events.push(TraceEvent {
            name: rec.name.to_string(),
            cat: if rec.fault.is_some() {
                "fault".to_string()
            } else {
                "kernel".to_string()
            },
            ph: "X".to_string(),
            ts: rec.start.as_us(),
            dur: rec.duration.as_us(),
            pid: 1,
            tid,
            args: TraceArgs {
                blocks: rec.config.blocks,
                threads_per_block: rec.config.threads_per_block,
                bottleneck: rec.breakdown.bottleneck().to_string(),
                global_bytes: rec.cost.total_global_bytes(),
                shared_atomic_warp_ops: rec.cost.shared_atomic_warp_ops,
                global_atomic_ops: rec.cost.global_atomic_ops,
                fault,
                sanitizer_findings: rec
                    .sanitizer
                    .as_ref()
                    .map_or(0, |s| s.findings.len() as u64),
                sanitizer_truncated: rec.sanitizer.as_ref().map_or(0, |s| s.truncated),
            },
        });
    }
    events
}

/// One Perfetto counter track: a named series of `(ts_us, value)`
/// samples rendered as a `"ph": "C"` counter lane in the trace viewer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterTrack {
    /// Track (and counter) name shown in the viewer.
    pub name: String,
    /// `(timestamp in microseconds, value)` samples, in time order.
    pub samples: Vec<(f64, f64)>,
}

/// Serialize the device timeline as a Chrome trace JSON string.
pub fn chrome_trace(device: &Device) -> String {
    chrome_trace_with_counters(device, &[])
}

/// [`chrome_trace`] plus counter tracks appended as `"ph": "C"` events
/// (one per sample). Empty tracks are skipped.
pub fn chrome_trace_with_counters(device: &Device, tracks: &[CounterTrack]) -> String {
    let events = trace_events(device);
    let samples: usize = tracks.iter().map(|t| t.samples.len()).sum();
    let mut out = String::with_capacity((events.len() + samples) * 256 + 2);
    out.push('[');
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_event(&mut out, ev);
    }
    let mut first = events.is_empty();
    for track in tracks {
        for &(ts, value) in &track.samples {
            if !first {
                out.push(',');
            }
            first = false;
            write_counter_event(&mut out, &track.name, ts, value);
        }
    }
    out.push(']');
    out
}

fn write_counter_event(out: &mut String, name: &str, ts: f64, value: f64) {
    out.push('{');
    write_str_field(out, "name", name, true);
    write_str_field(out, "cat", "counter", false);
    write_str_field(out, "ph", "C", false);
    write_num_field(out, "ts", ts, false);
    write_uint_field(out, "pid", 1, false);
    out.push_str(",\"args\":{");
    write_num_field(out, "value", value, true);
    out.push_str("}}");
}

fn write_event(out: &mut String, ev: &TraceEvent) {
    out.push('{');
    write_str_field(out, "name", &ev.name, true);
    write_str_field(out, "cat", &ev.cat, false);
    write_str_field(out, "ph", &ev.ph, false);
    write_num_field(out, "ts", ev.ts, false);
    write_num_field(out, "dur", ev.dur, false);
    write_uint_field(out, "pid", ev.pid as u64, false);
    write_uint_field(out, "tid", ev.tid as u64, false);
    out.push_str(",\"args\":{");
    write_uint_field(out, "blocks", ev.args.blocks as u64, true);
    write_uint_field(
        out,
        "threads_per_block",
        ev.args.threads_per_block as u64,
        false,
    );
    write_str_field(out, "bottleneck", &ev.args.bottleneck, false);
    write_uint_field(out, "global_bytes", ev.args.global_bytes, false);
    write_uint_field(
        out,
        "shared_atomic_warp_ops",
        ev.args.shared_atomic_warp_ops,
        false,
    );
    write_uint_field(out, "global_atomic_ops", ev.args.global_atomic_ops, false);
    if let Some(fault) = &ev.args.fault {
        write_str_field(out, "fault", fault, false);
    }
    if ev.args.sanitizer_findings > 0 {
        write_uint_field(out, "sanitizer_findings", ev.args.sanitizer_findings, false);
    }
    if ev.args.sanitizer_truncated > 0 {
        write_uint_field(
            out,
            "sanitizer_truncated",
            ev.args.sanitizer_truncated,
            false,
        );
    }
    out.push_str("}}");
}

fn write_str_field(out: &mut String, key: &str, value: &str, first: bool) {
    if !first {
        out.push(',');
    }
    escape(key, out);
    out.push(':');
    escape(value, out);
}

fn write_num_field(out: &mut String, key: &str, value: f64, first: bool) {
    if !first {
        out.push(',');
    }
    escape(key, out);
    out.push(':');
    if value.is_finite() {
        out.push_str(&format!("{value}"));
    } else {
        out.push_str("null");
    }
}

fn write_uint_field(out: &mut String, key: &str, value: u64, first: bool) {
    if !first {
        out.push(',');
    }
    escape(key, out);
    out.push(':');
    out.push_str(&value.to_string());
}

/// Append `s` to `out` as a quoted JSON string. The one escaper of the
/// workspace: the sanitizer report and `selectd`'s snapshot use it too.
pub fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::v100;
    use crate::launch::LaunchConfig;
    use hpc_par::ThreadPool;

    fn run_device(pool: &ThreadPool) -> Device<'_> {
        let mut device = Device::new(v100(), pool);
        let cfg = LaunchConfig {
            blocks: 100,
            threads_per_block: 256,
            shared_mem_bytes: 0,
        };
        device.launch("count", cfg, LaunchOrigin::Host, |_, c| {
            c.global_read_bytes += 1000;
        });
        device.launch("filter", cfg, LaunchOrigin::Device, |_, c| {
            c.global_write_bytes += 500;
        });
        device
    }

    #[test]
    fn events_cover_every_kernel_and_overhead() {
        let pool = ThreadPool::new(1);
        let device = run_device(&pool);
        let events = trace_events(&device);
        assert_eq!(events.len(), 4); // 2 kernels + 2 launch overheads
        assert_eq!(events[1].name, "count");
        assert_eq!(events[1].tid, 0, "host track");
        assert_eq!(events[3].name, "filter");
        assert_eq!(events[3].tid, 1, "device track");
        // events are chronologically ordered and non-overlapping
        assert!(events[0].ts + events[0].dur <= events[1].ts + 1e-9);
        assert!(events[1].ts + events[1].dur <= events[2].ts + 1e-9);
    }

    #[test]
    fn chrome_trace_is_valid_json_shape() {
        let pool = ThreadPool::new(1);
        let device = run_device(&pool);
        let json = chrome_trace(&device);
        // strict parse via the workspace's recursive-descent validator —
        // every event must be an object with the trace-event fields.
        let doc = crate::jsonv::parse(&json).expect("trace is valid JSON");
        let events = doc.as_arr().expect("trace is an array");
        assert_eq!(events.len(), 4);
        for ev in events {
            let obj = ev.as_obj().expect("event is an object");
            assert_eq!(ev.get("ph").and_then(|p| p.as_str()), Some("X"));
            for key in ["name", "cat", "ts", "dur", "pid", "tid", "args"] {
                assert!(obj.contains_key(key), "event missing {key}: {obj:?}");
            }
            let args = ev.get("args").unwrap();
            assert!(args.get("bottleneck").is_some());
            assert!(args.get("blocks").and_then(|b| b.as_num()).is_some());
        }
        assert_eq!(
            events[1].get("name").and_then(|n| n.as_str()),
            Some("count")
        );
    }

    #[test]
    fn counter_tracks_emit_perfetto_counter_events() {
        let pool = ThreadPool::new(1);
        let device = run_device(&pool);
        let tracks = [
            CounterTrack {
                name: "bucket_occupancy".to_string(),
                samples: vec![(1.0, 212.0), (2.5, 48.0)],
            },
            CounterTrack {
                name: "empty_track".to_string(),
                samples: Vec::new(),
            },
        ];
        let json = chrome_trace_with_counters(&device, &tracks);
        let doc = crate::jsonv::parse(&json).expect("trace with counters is valid JSON");
        let events = doc.as_arr().unwrap();
        assert_eq!(events.len(), 4 + 2, "2 counter samples appended");
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 2);
        assert_eq!(
            counters[0].get("name").and_then(|n| n.as_str()),
            Some("bucket_occupancy")
        );
        assert_eq!(
            counters[0]
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(|v| v.as_num()),
            Some(212.0)
        );
        assert_eq!(counters[1].get("ts").and_then(|t| t.as_num()), Some(2.5));
        // empty device + only counter events still forms a valid array
        let fresh = Device::new(v100(), &pool);
        let json = chrome_trace_with_counters(&fresh, &tracks);
        let doc = crate::jsonv::parse(&json).expect("counter-only trace parses");
        assert_eq!(doc.as_arr().unwrap().len(), 2);
    }

    #[test]
    fn faulted_launch_annotates_both_events() {
        use crate::fault::FaultPlan;
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        device.set_fault_plan(FaultPlan::new(9).launch_failures(1.0));
        let cfg = LaunchConfig {
            blocks: 4,
            threads_per_block: 64,
            shared_mem_bytes: 0,
        };
        device.launch("doomed", cfg, LaunchOrigin::Host, |_, _| {});
        assert!(device.has_fault());
        let events = trace_events(&device);
        assert_eq!(events.len(), 2);
        let overhead = &events[0];
        let kernel = &events[1];
        assert_eq!(overhead.cat, "launch-overhead");
        assert!(
            overhead.args.fault.is_some(),
            "launch-overhead event of a faulted launch must carry the fault"
        );
        assert_eq!(overhead.args.fault, kernel.args.fault);
        assert_eq!(kernel.cat, "fault");
        // and the JSON carries the annotation twice
        let json = chrome_trace(&device);
        assert_eq!(json.matches("\"fault\":").count(), 2);
        crate::jsonv::parse(&json).expect("faulted trace is valid JSON");
    }

    #[test]
    fn sanitizer_truncated_is_not_folded_into_findings() {
        use crate::sanitizer::SanitizerConfig;
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        device.set_sanitizer(SanitizerConfig {
            max_findings: 1,
            ..SanitizerConfig::full()
        });
        let cfg = LaunchConfig {
            blocks: 1,
            threads_per_block: 32,
            shared_mem_bytes: 0,
        };
        let buf = device.scatter_buffer::<u32>(1, "out");
        unsafe {
            buf.write(0, 1);
            buf.write(0, 2); // finding 1 (recorded)
            buf.write(0, 3); // finding 2 (truncated by the cap)
        }
        drop(buf);
        device.launch("racy", cfg, LaunchOrigin::Host, |_, _| {});
        let events = trace_events(&device);
        let racy = events.iter().find(|e| e.name == "racy").unwrap();
        assert_eq!(racy.args.sanitizer_findings, 1, "recorded findings only");
        assert!(racy.args.sanitizer_truncated >= 1, "cap overflow surfaced");
        let json = chrome_trace(&device);
        assert!(json.contains("\"sanitizer_findings\":1"));
        assert!(json.contains("\"sanitizer_truncated\":"));
        crate::jsonv::parse(&json).expect("sanitizer trace is valid JSON");
    }

    #[test]
    fn sanitizer_findings_surface_in_trace_args() {
        use crate::sanitizer::SanitizerConfig;
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        device.set_sanitizer(SanitizerConfig::full());
        let cfg = LaunchConfig {
            blocks: 1,
            threads_per_block: 32,
            shared_mem_bytes: 0,
        };
        let buf = device.scatter_buffer::<u32>(1, "out");
        unsafe {
            buf.write(0, 1);
            buf.write(0, 2); // double write → one finding
        }
        drop(buf);
        device.launch("racy", cfg, LaunchOrigin::Host, |_, _| {});
        device.launch("clean", cfg, LaunchOrigin::Host, |_, _| {});
        let json = chrome_trace(&device);
        assert_eq!(json.matches("\"sanitizer_findings\":1").count(), 1);
        let events = trace_events(&device);
        let racy = events.iter().find(|e| e.name == "racy").unwrap();
        assert_eq!(racy.args.sanitizer_findings, 1);
        let clean = events.iter().find(|e| e.name == "clean").unwrap();
        assert_eq!(clean.args.sanitizer_findings, 0);
    }

    #[test]
    fn string_escaping() {
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let cfg = LaunchConfig {
            blocks: 1,
            threads_per_block: 32,
            shared_mem_bytes: 0,
        };
        device.launch("weird \"name\"\n", cfg, LaunchOrigin::Host, |_, _| {});
        let json = chrome_trace(&device);
        assert!(json.contains("weird \\\"name\\\"\\n"));
    }
}
