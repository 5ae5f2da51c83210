//! Pins seven arrival streams across versions: the trace day in the
//! shapes the fleet benchmark and the serving sweep offer it, at a
//! horizon past 2⁴⁰ cycles, a trace with two overlapping crowds one of
//! which is a total brownout, and the homogeneous Poisson and thinned
//! diurnal generators.
//!
//! The unit tests check the generators' properties and compare the
//! trace inversion with its 64-halving specification; these pins are
//! the only check that a stream stays the same from one version to the
//! next. Every fleet artifact is downstream of them, so a diff here
//! means every fleet number moved; a deliberate change re-records the
//! strings and says why.

use equinox_sim::loadgen::{
    diurnal_arrivals, poisson_arrivals, split_seed, trace_arrivals, trace_mean_load,
    DiurnalProfile, FlashCrowd,
};

/// The stream's length, its first and last cycle, and an FNV-1a digest
/// over every cycle's little-endian bytes.
fn fingerprint(arrivals: &[u64]) -> String {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for b in arrivals.iter().flat_map(|t| t.to_le_bytes()) {
        digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!(
        "n={} first={} last={} digest={digest:016x}",
        arrivals.len(),
        arrivals.first().copied().unwrap_or_default(),
        arrivals.last().copied().unwrap_or_default()
    )
}

/// The serving day: a diurnal profile averaging 30 % load with a 2.5×
/// midday crowd over 8 % of the day.
fn trace_day() -> (DiurnalProfile, FlashCrowd) {
    (
        DiurnalProfile::thirty_percent_average(),
        FlashCrowd { start_frac: 0.55, duration_frac: 0.08, multiplier: 2.5 },
    )
}

/// The trace day at `load` of the saturation volume (`rate` per cycle
/// over `horizon` cycles), on the fleet's arrival stream of `seed`.
fn day_at(load: f64, rate: f64, horizon: u64, seed: u64) -> Vec<u64> {
    let (profile, crowd) = trace_day();
    let mean = trace_mean_load(&profile, &[crowd]).unwrap();
    trace_arrivals(&profile, &[crowd], load / mean, rate, horizon, split_seed(seed, 0)).unwrap()
}

#[test]
fn trace_day_in_the_fleet_benchmark_shape() {
    // Twenty fitted LSTM batch intervals (294 150 cycles, batch 186) at
    // 80 % of a 16-device fleet: a short horizon at a high rate.
    let interval = 294_150u64;
    let arrivals = day_at(0.8, 16.0 * 186.0 / interval as f64, 20 * interval, 7);
    assert_eq!(fingerprint(&arrivals), "n=47446 first=211 last=5882379 digest=947c337969d92266");
}

#[test]
fn trace_day_of_the_64_device_fleet_benchmark() {
    // The `fleet_day` benchmark's stream: twenty fitted LSTM batch
    // intervals at 80 % of 64 devices, on the fleet's seed 42.
    let arrivals = day_at(0.8, 64.0 * 186.0 / 294_150.0, 20 * 294_150, 42);
    assert_eq!(fingerprint(&arrivals), "n=190872 first=172 last=5882885 digest=5473b57193c914c6");
}

#[test]
fn trace_day_past_two_to_the_forty_cycles() {
    // A horizon of 2⁴⁰ cycles and more: one cycle is about 10⁻¹² of the
    // day, so the inversion's last halvings bisect brackets whose
    // cumulative intensities differ by less than the evaluation's
    // rounding and must call the closed form.
    let arrivals = day_at(0.5, 8e-8, (1 << 40) + 4_321, 29);
    assert_eq!(
        fingerprint(&arrivals),
        "n=43718 first=482014488 last=1099497756298 digest=dcd0d8d114f6e908"
    );
}

#[test]
fn trace_day_in_the_serving_sweep_shape() {
    // The sweep's full-scale day (9 375 intervals of 16 000 cycles) at
    // 30 % of one 16-per-interval device: a long horizon, so the
    // inversion must resolve more cycles per arrival.
    let arrivals = day_at(0.3, 16.0 / 16_000.0, 9_375 * 16_000, 11);
    assert_eq!(fingerprint(&arrivals), "n=45179 first=9805 last=149947399 digest=b71abd1ed56971cc");
}

#[test]
fn two_crowds_with_a_total_brownout() {
    // The brownout zeroes the rate over [0.10, 0.25); the 3× crowd
    // overlaps it on [0.20, 0.25), where the product stays zero.
    let profile = DiurnalProfile::thirty_percent_average();
    let crowds = [
        FlashCrowd { start_frac: 0.10, duration_frac: 0.15, multiplier: 0.0 },
        FlashCrowd { start_frac: 0.20, duration_frac: 0.30, multiplier: 3.0 },
    ];
    let arrivals = trace_arrivals(&profile, &crowds, 1.0, 4e-3, 10_000_000, 13).unwrap();
    assert!(
        arrivals.iter().all(|&t| !(1_000_000..2_500_000).contains(&t)),
        "nothing arrives during the brownout"
    );
    assert_eq!(fingerprint(&arrivals), "n=23163 first=822 last=9991020 digest=85edb2addf585e07");
}

#[test]
fn poisson_stream() {
    let arrivals = poisson_arrivals(2e-3, 20_000_000, 17).unwrap();
    assert_eq!(fingerprint(&arrivals), "n=39794 first=344 last=19999905 digest=2e43db4c157bc097");
}

#[test]
fn diurnal_stream() {
    let profile = DiurnalProfile::thirty_percent_average();
    let arrivals = diurnal_arrivals(&profile, 1e-2, 10_000_000, 19).unwrap();
    assert_eq!(fingerprint(&arrivals), "n=34934 first=961 last=9999775 digest=7fa20400af5d3eec");
}
