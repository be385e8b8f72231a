//! Criterion benches for the analog substrate: event-exact astable
//! stepping and sample-and-hold updates.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use eh_analog::astable::AstableMultivibrator;
use eh_analog::sample_hold::{SampleHold, SampleHoldConfig};
use eh_units::{Seconds, Volts};

fn bench_astable_full_period(c: &mut Criterion) {
    c.bench_function("analog/astable_one_period", |b| {
        let mut astable = AstableMultivibrator::paper_configuration().expect("valid config");
        b.iter(|| astable.step(black_box(Seconds::new(69.04))))
    });
}

fn bench_astable_fine_steps(c: &mut Criterion) {
    c.bench_function("analog/astable_1000_fine_steps", |b| {
        let mut astable = AstableMultivibrator::paper_configuration().expect("valid config");
        b.iter(|| {
            for _ in 0..1000 {
                astable.step(black_box(Seconds::from_milli(1.0)));
            }
        })
    });
}

fn bench_sample_hold_pulse(c: &mut Criterion) {
    c.bench_function("analog/sample_hold_pulse_cycle", |b| {
        let mut sh =
            SampleHold::new(SampleHoldConfig::paper_configuration(0.298).expect("valid config"))
                .expect("valid config");
        b.iter(|| {
            sh.step(black_box(Volts::new(5.44)), true, Seconds::from_milli(39.0));
            sh.step(black_box(Volts::ZERO), false, Seconds::new(69.0))
        })
    });
}

criterion_group!(
    benches,
    bench_astable_full_period,
    bench_astable_fine_steps,
    bench_sample_hold_pulse
);
criterion_main!(benches);
