//! `tfm <command> --help` prints that command's synopsis from `tfm help`
//! and exits 0, wherever `--help` stands among the command's arguments.

use std::process::{Command, Output};

fn tfm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tfm"))
        .args(args)
        .output()
        .expect("the tfm binary runs")
}

#[test]
fn every_subcommand_prints_its_synopsis_on_help() {
    let usage = String::from_utf8(tfm(&["help"]).stdout).expect("utf-8 usage");
    for command in ["generate", "build", "join", "serve", "mutate", "info"] {
        for args in [
            &[command, "--help"][..],
            &[command, "--in", "missing.elems", "--help"],
        ] {
            let out = tfm(args);
            assert!(out.status.success(), "{args:?}: {out:?}");
            let help = String::from_utf8(out.stdout).expect("utf-8 synopsis");
            assert!(
                help.starts_with(&format!("  tfm {command} ")),
                "{args:?} printed {help:?}"
            );
            // The synopsis is the command's own lines of the full usage:
            // its `tfm` line and the `[…]` lines under it.
            assert!(usage.contains(&help), "{args:?} printed {help:?}");
            let lines: Vec<&str> = help.lines().collect();
            assert!(
                lines[1..].iter().all(|l| l.trim_start().starts_with('[')),
                "{help:?}"
            );
            let after = &usage[usage.find(&help).unwrap() + help.len()..];
            assert!(
                !after.trim_start().starts_with('['),
                "{command}: synopsis cut short"
            );
        }
    }
}
