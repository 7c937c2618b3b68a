//! Criterion benches of the Reed-Solomon codec: encode, consistency
//! check, erasure decode, Berlekamp-Welch correction, and the batched
//! slice kernels against their scalar reference (the repo benchmark's
//! `gf.*` and `rscode.*` probes time the same paths at each workload's
//! geometry).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mvbc_bench::workload_value;
use mvbc_gf::{kernels, Field, Gf256, Gf65536};
use mvbc_rscode::{berlekamp_welch, reference, ReedSolomon, StripedCode};
use std::hint::black_box;

fn striped_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("striped_encode");
    for len in [256usize, 4096, 65536] {
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, &len| {
            let code = StripedCode::c2t(7, 2, len).unwrap();
            let v = workload_value(len, 1);
            b.iter(|| black_box(code.encode_value(&v).unwrap()));
        });
    }
    group.finish();
}

fn striped_decode_and_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("striped_decode");
    for len in [256usize, 4096, 65536] {
        group.throughput(Throughput::Bytes(len as u64));
        let code = StripedCode::c2t(7, 2, len).unwrap();
        let v = workload_value(len, 2);
        let syms = code.encode_value(&v).unwrap();
        let pairs: Vec<_> = syms.iter().cloned().enumerate().take(3).collect();
        let all: Vec<_> = syms.iter().cloned().enumerate().collect();
        group.bench_with_input(BenchmarkId::new("erasure_decode", len), &len, |b, _| {
            b.iter(|| black_box(code.decode_value(&pairs).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("consistency_check", len), &len, |b, _| {
            b.iter(|| black_box(code.is_consistent(&all).unwrap()));
        });
    }
    group.finish();
}

fn berlekamp_welch_correction(c: &mut Criterion) {
    let mut group = c.benchmark_group("berlekamp_welch");
    for (n, k) in [(7usize, 3usize), (15, 5), (31, 11)] {
        group.bench_with_input(BenchmarkId::from_parameter(format!("n{n}_k{k}")), &(n, k), |b, &(n, k)| {
            let rs: ReedSolomon<Gf256> = ReedSolomon::new(n, k).unwrap();
            let data: Vec<Gf256> = (0..k).map(|i| Gf256::new(i as u8 + 1)).collect();
            let mut cw = rs.encode(&data).unwrap();
            let e = (n - k) / 2;
            for (i, item) in cw.iter_mut().enumerate().take(e) {
                *item += Gf256::new(i as u8 + 1);
            }
            let pairs: Vec<_> = cw.into_iter().enumerate().collect();
            b.iter(|| black_box(berlekamp_welch::decode(&rs, &pairs).unwrap()));
        });
    }
    group.finish();
}

fn slice_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("slice_kernels");
    let len = 8192usize;
    let src: Vec<Gf65536> = (0..len).map(|i| Gf65536::from_u64(i as u64 * 31 + 7)).collect();
    let coeff = Gf65536::new(0x1d2c);
    group.throughput(Throughput::Bytes((len * 2) as u64));
    group.bench_function("addmul_batched", |b| {
        let mut dst = vec![Gf65536::ZERO; len];
        b.iter(|| kernels::addmul_slice(black_box(coeff), black_box(&src), &mut dst));
    });
    group.bench_function("addmul_scalar", |b| {
        let mut dst = vec![Gf65536::ZERO; len];
        b.iter(|| kernels::addmul_slice_scalar(black_box(coeff), black_box(&src), &mut dst));
    });
    group.finish();
}

fn scalar_reference_striped(c: &mut Criterion) {
    let mut group = c.benchmark_group("striped_scalar_reference");
    let len = 4096usize;
    group.throughput(Throughput::Bytes(len as u64));
    let code = StripedCode::c2t(7, 2, len).unwrap();
    let v = workload_value(len, 3);
    let syms = code.encode_value(&v).unwrap();
    let pairs: Vec<_> = syms.iter().cloned().enumerate().skip(4).collect();
    group.bench_function("encode", |b| {
        b.iter(|| black_box(reference::encode_value(&code, &v).unwrap()));
    });
    group.bench_function("erasure_decode", |b| {
        b.iter(|| black_box(reference::decode_value(&code, &pairs).unwrap()));
    });
    group.finish();
}

criterion_group!(
    benches,
    striped_encode,
    striped_decode_and_check,
    berlekamp_welch_correction,
    slice_kernels,
    scalar_reference_striped
);
criterion_main!(benches);
