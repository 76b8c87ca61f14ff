//! `tfm <command> --help` prints that command's synopsis from `tfm help`
//! and exits 0, wherever `--help` stands among the command's arguments;
//! a reader that closes the pipe early ends `tfm` quietly, with status 0.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

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

#[test]
fn a_closed_pipe_ends_the_process_quietly() {
    // `tfm serve --help | head -1`: read one line, then close the pipe.
    // The rest of the output may already sit in the pipe's buffer, so
    // this run need not hit the closed pipe...
    let mut child = Command::new(env!("CARGO_BIN_EXE_tfm"))
        .args(["serve", "--help"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the tfm binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("one line");
    assert!(first.starts_with("  tfm serve "), "{first:?}");
    let out = child.wait_with_output().expect("tfm exits");
    assert!(out.status.success(), "{out:?}");
    assert!(out.stderr.is_empty(), "{out:?}");

    // ...this one must: the pipe's only reader is gone before `tfm` starts,
    // so its first write fails with a broken pipe.
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_tfm"))
        .arg("help")
        .stdout(writer)
        .output()
        .expect("the tfm binary runs");
    assert!(out.status.success(), "{out:?}");
    assert!(out.stderr.is_empty(), "{out:?}");
}
