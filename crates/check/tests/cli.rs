//! End-to-end tests of the `equinox-check` binary: a corrupted
//! instruction stream must produce a coded diagnostic and a non-zero
//! exit status.

use equinox_isa::instruction::{BufferKind, Region};
use equinox_isa::layers::GemmMode;
use equinox_isa::Instruction;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_equinox-check"))
}

fn scratch(name: &str, bytes: &[u8]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("equinox-check-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, bytes).unwrap();
    path
}

#[test]
fn corrupted_stream_fails_with_decode_error() {
    // Word 0 carries an opcode (0xFF) the ISA does not define.
    let mut bytes = vec![0u8; 16];
    bytes[0] = 0xFF;
    let path = scratch("corrupt.bin", &bytes);
    let out = bin().arg(&path).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("EQX0302"), "missing code in: {stdout}");
}

#[test]
fn truncated_stream_fails_with_decode_error() {
    let path = scratch("truncated.bin", &[0u8; 10]);
    let out = bin().arg(&path).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("EQX0302"));
}

#[test]
fn defective_program_fails_with_dataflow_error() {
    // A well-formed stream that stores activation bytes nothing defined:
    // decodes fine, then trips the dataflow pass.
    let program = vec![Instruction::StoreDram {
        source: BufferKind::Activation,
        region: Region::new(0, 4096),
    }];
    let path = scratch("store-first.bin", &equinox_isa::encode::encode(&program));
    let out = bin().arg(&path).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("EQX0501"));
}

#[test]
fn healthy_stream_passes() {
    let program = vec![
        Instruction::LoadDram { target: BufferKind::Weight, region: Region::new(0, 64) },
        Instruction::LoadDram { target: BufferKind::Activation, region: Region::new(0, 32) },
        Instruction::Sync,
        Instruction::MatMulTile {
            rows: 4,
            k_span: 8,
            out_span: 8,
            mode: GemmMode::VectorMatrix,
            weights: Region::new(0, 64),
            input: Region::new(0, 32),
            output: Region::new(4096, 32),
        },
        Instruction::Sync,
        Instruction::StoreDram { source: BufferKind::Activation, region: Region::new(4096, 32) },
    ];
    let path = scratch("healthy.bin", &equinox_isa::encode::encode(&program));
    let out = bin().arg(&path).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn deny_warnings_promotes_warnings_to_failure() {
    // Loaded bytes nothing reads: a dead-store warning, no errors.
    let program = vec![
        Instruction::LoadDram { target: BufferKind::Activation, region: Region::new(0, 1024) },
        Instruction::Sync,
    ];
    let path = scratch("wasted.bin", &equinox_isa::encode::encode(&program));
    let out = bin().arg(&path).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
    let out = bin().arg("--deny-warnings").arg(&path).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stdout).contains("EQX0505"));
}

#[test]
fn missing_file_is_an_error() {
    let out = bin().arg("/nonexistent/equinox.bin").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("EQX0302"));
}

#[test]
fn list_passes_names_every_family() {
    let out = bin().arg("--list-passes").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["dataflow", "resources", "encoding", "bounds", "numerics"] {
        assert!(stdout.contains(name), "missing {name} in: {stdout}");
    }
}

#[test]
fn unknown_pass_is_a_usage_error() {
    // Configuration lints analyze a configuration, not a stream, so
    // `config` selects nothing here and is unknown.
    for pass in ["bogus", "config"] {
        let out = bin().arg("--pass").arg(pass).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown pass"), "{stderr}");
    }
    let out = bin().arg("--pass").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "a trailing --pass needs a value");
}

#[test]
fn unknown_option_is_a_usage_error() {
    // A misspelt flag is neither a file nor silently dropped.
    let path = scratch("unknown-option.bin", &[0u8; 16]);
    let out = bin().arg("--deny-warning").arg(&path).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option --deny-warning"), "{stderr}");
    assert!(stderr.contains("usage: equinox-check"), "{stderr}");
    assert!(out.stdout.is_empty(), "a usage error analyzed something: {out:?}");
}

#[test]
fn no_file_is_a_usage_error_that_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("equinox-check-no-file-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = bin().current_dir(&dir).output().expect("binary runs");
    let wrote_results = dir.join("results").exists();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("regen-results checks"), "the sweep is not named in: {stderr}");
    assert!(!wrote_results, "a usage error created results/");
}

#[test]
fn pass_selection_gates_the_bounds_lint() {
    // A 50 MB weight stream feeding one tiny tile multiply: DMA
    // dominates compute, so the bounds pass flags EQX0602 — but only
    // when it is selected.
    let program = vec![
        Instruction::LoadDram { target: BufferKind::Weight, region: Region::new(0, 50 << 20) },
        Instruction::LoadDram { target: BufferKind::Activation, region: Region::new(0, 32) },
        Instruction::Sync,
        Instruction::MatMulTile {
            rows: 4,
            k_span: 8,
            out_span: 8,
            mode: GemmMode::VectorMatrix,
            weights: Region::new(0, 64),
            input: Region::new(0, 32),
            output: Region::new(4096, 32),
        },
        Instruction::Sync,
        Instruction::StoreDram { source: BufferKind::Activation, region: Region::new(4096, 32) },
    ];
    let path = scratch("dma-bound.bin", &equinox_isa::encode::encode(&program));
    let all = bin().arg(&path).output().expect("binary runs");
    assert_eq!(all.status.code(), Some(0), "{}", String::from_utf8_lossy(&all.stdout));
    assert!(String::from_utf8_lossy(&all.stdout).contains("EQX0602"));
    let denied =
        bin().arg("--deny-warnings").arg(&path).output().expect("binary runs");
    assert_eq!(denied.status.code(), Some(1));
    let dataflow_only = bin()
        .arg("--pass")
        .arg("dataflow")
        .arg("--deny-warnings")
        .arg(&path)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&dataflow_only.stdout);
    assert!(!stdout.contains("EQX0602"), "bounds must be gated off: {stdout}");
    let bounds_only = bin().arg("--pass=bounds").arg(&path).output().expect("binary runs");
    assert_eq!(bounds_only.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&bounds_only.stdout).contains("EQX0602"));
}
