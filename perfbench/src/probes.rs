//! Side measurements of single layers: a memoryload sweep and random
//! single-block reads on a workload's own disk system (`pdm` dispatch
//! and backend), address-evaluation kernels over each plan step's
//! permutation (`bmmc::eval`), and the host fingerprint.

use crate::cases::ms_since;
use bmmc::{AffineEvaluator, BlockEvaluator, Bmmc};
use pdm::{BlockRef, DiskSystem};
use std::path::Path;
use std::time::Instant;

/// Microseconds per parallel I/O of striped reads and writes, from
/// writing then reading every memoryload of `portion` (whose contents
/// are overwritten). The read-back is checked against what was written.
pub fn stripe_sweep(sys: &mut DiskSystem<u64>, portion: usize) -> Result<(f64, f64), String> {
    let geom = sys.geometry();
    let loads = geom.memoryloads();
    let ios = (loads * geom.stripes_per_memoryload()) as f64;
    let pattern = |ml: usize, i: usize| ((ml * geom.memory() + i) as u64).rotate_left(17);
    let mut buf = vec![0u64; geom.memory()];
    let t = Instant::now();
    for ml in 0..loads {
        for (i, r) in buf.iter_mut().enumerate() {
            *r = pattern(ml, i);
        }
        sys.write_memoryload(portion, ml, &buf)
            .map_err(|e| e.to_string())?;
    }
    let write_us = ms_since(t) * 1e3 / ios;
    let mut read_ns = 0.0;
    for ml in 0..loads {
        let t = Instant::now();
        sys.read_memoryload_into(portion, ml, &mut buf)
            .map_err(|e| e.to_string())?;
        read_ns += ms_since(t) * 1e6;
        if let Some(i) = (0..buf.len()).find(|&i| buf[i] != pattern(ml, i)) {
            return Err(format!(
                "memoryload sweep read back a wrong record at {ml}:{i}"
            ));
        }
    }
    Ok((read_ns / 1e3 / ios, write_us))
}

/// Microseconds per independent single-block parallel read, over
/// `count` reads at scattered slots of `portion`.
pub fn block_reads(sys: &mut DiskSystem<u64>, portion: usize, count: usize) -> Result<f64, String> {
    let geom = sys.geometry();
    let base = sys.portion_base(portion);
    let stripes = geom.stripes();
    let mut buf = vec![0u64; geom.block()];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let t = Instant::now();
    for _ in 0..count {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let r = BlockRef {
            disk: (x % geom.disks() as u64) as usize,
            slot: base + ((x >> 8) % stripes as u64) as usize,
        };
        sys.read_block_into(r, &mut buf)
            .map_err(|e| e.to_string())?;
    }
    Ok(ms_since(t) * 1e3 / count as f64)
}

/// Address-evaluation cost of one step permutation over all `2^n`
/// addresses: `(block_run_ns, affine_ns, fanout)` per record. The two
/// kernels' outputs are cross-checked, and both against
/// `Bmmc::target` at sampled addresses.
pub fn eval_kernels(perm: &Bmmc, block_bits: u32) -> Result<(f64, f64, usize), String> {
    let n = perm.bits();
    let records = 1u64 << n;
    let block = BlockEvaluator::new(perm, block_bits);
    let table = block
        .residual_table()
        .ok_or("block too wide for a residual table")?;
    let affine = AffineEvaluator::new(perm);
    let t = Instant::now();
    let mut sum_block = 0u64;
    for blk in 0..records >> block_bits {
        let base = block.block_base(blk);
        let src = blk << block_bits;
        for (off, &res) in table.iter().enumerate() {
            sum_block = sum_block.wrapping_add((base ^ res).wrapping_mul(src | off as u64 | 1));
        }
    }
    let block_ns = ms_since(t) * 1e6 / records as f64;
    let t = Instant::now();
    let mut sum_affine = 0u64;
    for x in 0..records {
        sum_affine =
            sum_affine.wrapping_add(affine.eval(std::hint::black_box(x)).wrapping_mul(x | 1));
    }
    let affine_ns = ms_since(t) * 1e6 / records as f64;
    if sum_block != sum_affine {
        return Err("block-run and affine evaluation disagree".into());
    }
    let step = (records / 1024).max(1);
    if let Some(x) = (0..records)
        .step_by(step as usize)
        .find(|&x| affine.eval(x) != perm.target(x))
    {
        return Err(format!(
            "affine evaluation disagrees with Bmmc::target at {x}"
        ));
    }
    Ok((
        block_ns,
        affine_ns,
        block.fanout().ok_or("fanout not enumerated")?,
    ))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("malformed VmHWM line")?;
    Ok(kb / 1024.0)
}

/// Cumulative steal time of all CPUs in ms, from `/proc/stat` (in
/// `USER_HZ` = 100 ticks per second).
pub fn steal_ms() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("read /proc/stat: {e}"))?;
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map(|ticks| ticks * 10.0)
        .ok_or_else(|| "no steal column in /proc/stat".into())
}

/// The filesystem type holding `dir`: the longest mount point in
/// `/proc/mounts` that prefixes its canonical path.
pub fn fs_type(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt).then(|| (mnt.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}
