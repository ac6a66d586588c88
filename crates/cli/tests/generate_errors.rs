//! `asm generate` rejects every generator precondition a flag can break with
//! an `error:` line naming the flag and exit code 1 — never a panic (101).

use std::process::Command;

#[test]
fn bad_generator_flags_exit_1_naming_the_flag() {
    let out = std::env::temp_dir().join(format!("smin_cli_bad_gen_{}.txt", std::process::id()));
    let out = out.to_str().unwrap();
    for (args, flag) in [
        ("--kind ba --n 3 --attach 5", "--attach"),
        ("--kind ws --n 10 --k 3", "--k"),
        ("--kind er --n 1", "--n"),
        ("--kind chung-lu --n 100 --gamma 0.5", "--gamma"),
        ("--kind er --n 5 --m 1000", "--m"),
        ("--kind er --n 50 --weights uniform:0", "--weights"),
        ("--kind er --n 50 --weights uniform:1.5", "--weights"),
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_asm"))
            .arg("generate")
            .args(args.split(' '))
            .args(["--out", out])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{args}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {flag}: ")),
            "{args}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args}: {stderr}");
    }
    assert!(
        !std::path::Path::new(out).exists(),
        "no output on a rejected spec"
    );
}
