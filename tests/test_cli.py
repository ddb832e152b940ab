import argparse
import json
import re
import shlex
import time
from pathlib import Path

import pytest

from streamvc import certificate
from streamvc.cli import build_parser, main
from streamvc.errors import StreamFormatError
from streamvc.forest import MAX_N
from streamvc.graph import UpdateEvent
from streamvc.streamio import read_stream, write_stream


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip() else None
    return code, out, err


def test_stream_roundtrip(tmp_path):
    path = tmp_path / "x.stream"
    events = [UpdateEvent(0, 1, 1), UpdateEvent(1, 2, 1), UpdateEvent(0, 1, -1)]
    write_stream(path, 4, 2, events, comment="demo\nsecond line")
    n, k, back = read_stream(path)
    assert (n, k) == (4, 2)
    assert back == events
    text = path.read_text()
    assert text.startswith("# demo\n# second line\n4 2\n")
    assert "+1" in text and "-1" in text


def test_stream_parse_errors(tmp_path):
    cases = [
        ("4\n0 1 +1\n", "header"),
        ("4 2\n0 1\n", "event line"),
        ("4 2\n0 1 +2\n", "delta"),
        ("4 2\na b +1\n", "integers"),
        ("# only comments\n", "missing header"),
        ("4 2\n0 1 +1\n0 9 +1\n", "endpoints"),
        ("4 2\n2 2 -1\n", "self-loop"),
    ]
    for body, fragment in cases:
        path = tmp_path / "bad.stream"
        path.write_text(body)
        with pytest.raises(StreamFormatError) as err:
            read_stream(path)
        assert fragment.split()[0] in str(err.value)
    assert str(err.value) == "line 2: self-loop at vertex 2"


def test_parse_error_reports_line_number(tmp_path):
    path = tmp_path / "bad.stream"
    path.write_text("# comment\n4 2\n0 1 +1\n0 1 oops\n")
    with pytest.raises(StreamFormatError) as err:
        read_stream(path)
    assert err.value.line == 4


def test_stream_crlf_without_final_newline(tmp_path):
    path = tmp_path / "crlf.stream"
    path.write_bytes(b"# comment\r\n4 2\r\n0 1 +1\r\n\r\n1 2 +1 # last\r\n2 3 -1")
    assert read_stream(path) == (
        4,
        2,
        [UpdateEvent(0, 1, 1), UpdateEvent(1, 2, 1), UpdateEvent(2, 3, -1)],
    )
    path.write_bytes(b"4 2\r0 1 +1\r\n0 1 oops")
    with pytest.raises(StreamFormatError) as err:
        read_stream(path)
    assert err.value.line == 3


def test_stream_form_feed_is_not_a_line_break(tmp_path):
    path = tmp_path / "ff.stream"
    path.write_text("4 2\n0 1 +1\x0c1 2 +1\n")
    with pytest.raises(StreamFormatError, match="event line") as err:
        read_stream(path)
    assert err.value.line == 2


def test_stream_utf8_bom_is_skipped(tmp_path):
    body = b"# comment\n5 2\n0 1 +1\n1 2 +1\n0 1 -1\n"
    plain, bom = tmp_path / "plain.stream", tmp_path / "bom.stream"
    plain.write_bytes(body)
    bom.write_bytes(b"\xef\xbb\xbf" + body)
    assert read_stream(bom) == read_stream(plain)
    bom.write_bytes(b"\xef\xbb\xbf5 2\n0 1 +1\n")
    assert read_stream(bom) == (5, 2, [UpdateEvent(0, 1, 1)])


def test_gen_and_certify_complete(tmp_path, capsys):
    path = tmp_path / "k8.stream"
    code, out, _ = run_cli(
        capsys, "gen", "named", "--name", "complete(8)", "--k", "3", "--out", str(path)
    )
    assert code == 0
    code, report, _ = run_cli(
        capsys,
        "certify",
        str(path),
        "--mode",
        "dynamic",
        "--scale-c",
        "5",
        "--delta",
        "0.01",
        "--oracle",
    )
    assert code == 0
    assert report["verdict"] is True
    assert report["oracle_verdict"] is True
    assert report["measured_sketch_bytes"] > 0


def test_certify_path_not_2_connected(tmp_path, capsys):
    path = tmp_path / "p.stream"
    run_cli(capsys, "gen", "named", "--name", "path(8)", "--k", "2", "--out", str(path))
    for mode in ("offline", "insertion"):
        code, report, _ = run_cli(capsys, "certify", str(path), "--mode", mode)
        assert code == 1
        assert report["verdict"] is False


def test_certify_intersecting_disjointness(tmp_path, capsys):
    path = tmp_path / "d.stream"
    run_cli(
        capsys,
        "gen",
        "disjointness",
        "--n",
        "10",
        "--k",
        "3",
        "--seed",
        "2",
        "--intersecting",
        "--out",
        str(path),
    )
    code, report, _ = run_cli(capsys, "certify", str(path), "--mode", "offline", "--oracle")
    assert code == 1
    assert report["verdict"] is False and report["oracle_verdict"] is False



def test_gen_disjointness_refuses_both_forces(tmp_path, capsys):
    path = tmp_path / "d.stream"
    argv = ["gen", "disjointness", "--disjoint", "--intersecting", "--out", str(path)]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
    assert not path.exists()

def test_certify_insertion_rejects_deletions(tmp_path, capsys):
    path = tmp_path / "del.stream"
    write_stream(path, 4, 1, [UpdateEvent(0, 1, 1), UpdateEvent(0, 1, -1)])
    code, _, err = run_cli(capsys, "certify", str(path), "--mode", "insertion")
    assert code == 2
    assert "InsertionOnlyViolation" in err["error"]


def test_certify_space_cap_exit_2(tmp_path, capsys):
    path = tmp_path / "k8.stream"
    run_cli(capsys, "gen", "named", "--name", "complete(8)", "--k", "2", "--out", str(path))
    code, _, err = run_cli(
        capsys, "certify", str(path), "--mode", "dynamic", "--space-cap-bytes", "100"
    )
    assert code == 2
    assert "SpaceExceeded" in err["error"]


def test_certify_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "certify", "/nonexistent/xx.stream")
    assert code == 2


def test_certify_header_k_and_override(tmp_path, capsys):
    path = tmp_path / "c6.stream"
    run_cli(capsys, "gen", "named", "--name", "cycle(6)", "--k", "2", "--out", str(path))
    code, report, _ = run_cli(capsys, "certify", str(path), "--mode", "offline")
    assert code == 0 and report["params"]["k"] == 2
    code, report, _ = run_cli(capsys, "certify", str(path), "--mode", "offline", "--k", "3")
    assert code == 1 and report["params"]["k"] == 3


def test_oracle_command(tmp_path, capsys):
    path = tmp_path / "pet.stream"
    run_cli(capsys, "gen", "named", "--name", "petersen", "--out", str(path))
    code, report, _ = run_cli(capsys, "oracle", str(path))
    assert code == 0 and report["vertex_connectivity"] == 3
    code, report, _ = run_cli(capsys, "oracle", str(path), "--k", "3")
    assert code == 0 and report["is_k_connected"] is True


def test_check_command(tmp_path, capsys):
    path = tmp_path / "r.stream"
    run_cli(
        capsys,
        "gen",
        "random",
        "--n",
        "16",
        "--density",
        "0.4",
        "--delete-frac",
        "0.2",
        "--k",
        "2",
        "--seed",
        "4",
        "--out",
        str(path),
    )
    code, report, _ = run_cli(
        capsys, "check", str(path), "--trials", "10", "--scale-c", "20"
    )
    assert code == 0
    assert report["match_rate"] >= 0.9
    assert report["certificate_edges"]["max"] >= report["certificate_edges"]["min"]


def test_check_scale_sweep_reported(tmp_path, capsys):
    # accuracy across forest-count scales is reported, not asserted: the
    # rate is expected to climb with C but small C may already saturate
    path = tmp_path / "pl.stream"
    run_cli(
        capsys, "gen", "planted", "--n", "16", "--k", "2", "--seed", "3",
        "--out", str(path),
    )
    rates = {}
    for c in (1, 5, 20):
        code, report, _ = run_cli(
            capsys, "check", str(path), "--trials", "20", "--scale-c", str(c)
        )
        assert code == 0
        rates[c] = report["match_rate"]
    print(f"match rate by scale C: {rates}")
    assert all(0.0 <= r <= 1.0 for r in rates.values())


def test_check_k1_connectivity_is_exact(tmp_path, capsys):
    path = tmp_path / "r1.stream"
    run_cli(
        capsys, "gen", "random", "--n", "20", "--density", "0.2",
        "--delete-frac", "0.3", "--k", "1", "--seed", "6", "--out", str(path),
    )
    code, report, _ = run_cli(capsys, "check", str(path), "--trials", "25")
    assert code == 0
    assert report["match_rate"] == 1.0


def test_reports_byte_identical_minus_wall_time(tmp_path, capsys):
    path = tmp_path / "q3.stream"
    run_cli(capsys, "gen", "named", "--name", "hypercube(3)", "--k", "2", "--out", str(path))
    reports = []
    for _ in range(2):
        code, report, _ = run_cli(
            capsys,
            "certify",
            str(path),
            "--mode",
            "dynamic",
            "--scale-c",
            "3",
            "--delta",
            "0.05",
            "--seed",
            "9",
        )
        assert code == 0
        report.pop("wall_time_s")
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]


def test_cert_out_writes_certificate_json(tmp_path, capsys):
    from streamvc.certificate import Certificate

    path = tmp_path / "k6.stream"
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "gen", "named", "--name", "complete(6)", "--k", "2", "--out", str(path))
    code, report, _ = run_cli(
        capsys,
        "certify",
        str(path),
        "--mode",
        "offline",
        "--scale-c",
        "5",
        "--cert-out",
        str(cert_path),
    )
    assert code == 0 and report["cert_out"] == str(cert_path)
    cert = Certificate.from_json(cert_path.read_text())
    assert cert.params.n == 6
    assert len(cert.edges) == report["certificate_edges"]


def test_cert_out_in_insertion_mode_exit_2(tmp_path, capsys):
    # the insertion certifier keeps no certificate to write
    path, cert_path = tmp_path / "k5.stream", tmp_path / "cert.json"
    run_cli(capsys, "gen", "named", "--name", "complete(5)", "--k", "2", "--out", str(path))
    code, out, err = run_cli(
        capsys, "certify", str(path), "--mode", "insertion", "--cert-out", str(cert_path)
    )
    assert code == 2 and out is None
    assert err["error"].startswith("ValueError") and "--cert-out" in err["error"]
    assert not cert_path.exists()


def test_subprocess_entry_exit_codes(tmp_path):
    import subprocess
    import sys

    path = tmp_path / "p4.stream"
    write_stream(path, 4, 2, [UpdateEvent(0, 1, 1), UpdateEvent(1, 2, 1), UpdateEvent(2, 3, 1)])
    proc = subprocess.run(
        [sys.executable, "-m", "streamvc.cli", "certify", str(path), "--mode", "insertion"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1  # a path is not 2-connected
    assert json.loads(proc.stdout)["verdict"] is False


def test_gen_planted_and_random_validate(tmp_path, capsys):
    path = tmp_path / "pl.stream"
    code, _, _ = run_cli(
        capsys,
        "gen",
        "planted",
        "--n",
        "12",
        "--k",
        "3",
        "--seed",
        "5",
        "--out",
        str(path),
    )
    assert code == 0
    code, report, _ = run_cli(capsys, "certify", str(path), "--mode", "offline", "--oracle")
    assert code == 1 and report["oracle_verdict"] is False


@pytest.mark.parametrize("scale_c", ["inf", "nan", "1e308"])
def test_certify_non_finite_scale_exit_2(tmp_path, capsys, scale_c):
    path = tmp_path / "k6.stream"
    run_cli(capsys, "gen", "named", "--name", "complete(6)", "--k", "4", "--out", str(path))
    for mode in ("offline", "dynamic"):
        code, out, err = run_cli(
            capsys, "certify", str(path), "--mode", mode, "--scale-c", scale_c
        )
        assert code == 2 and out is None
        assert err["error"].startswith("ValueError")


def test_certify_subnormal_delta_sizes_its_sketch(tmp_path, capsys):
    # 1/delta overflows to infinity; the repetition count must still be finite
    path = tmp_path / "k5.stream"
    run_cli(capsys, "gen", "named", "--name", "complete(5)", "--k", "2", "--out", str(path))
    code, report, err = run_cli(
        capsys, "certify", str(path), "--mode", "dynamic", "--scale-c", "2", "--delta", "1e-320"
    )
    assert code == 0 and err is None
    assert report["verdict"] is True and report["params"]["delta"] == 1e-320


def test_certify_delta_underflowing_per_sketch_exit_2(tmp_path, capsys):
    # delta / (rounds * members) rounds to 0.0: a budget no repetition count meets
    path = tmp_path / "k5.stream"
    run_cli(capsys, "gen", "named", "--name", "complete(5)", "--k", "2", "--out", str(path))
    code, out, err = run_cli(
        capsys, "certify", str(path), "--mode", "dynamic", "--scale-c", "2", "--delta", "5e-324"
    )
    assert code == 2 and out is None
    assert err["error"].startswith("ValueError") and "positive" in err["error"]


def test_certify_huge_scale_stops_at_the_space_cap(tmp_path, capsys):
    # r is about 2.5e4, just under max_forests(8)
    path = tmp_path / "k8.stream"
    run_cli(capsys, "gen", "named", "--name", "complete(8)", "--k", "2", "--out", str(path))
    code, _, err = run_cli(
        capsys, "certify", str(path), "--scale-c", "3000", "--delta", "0.1",
        "--space-cap-bytes", "1000000",
    )
    assert code == 2
    assert "SpaceExceeded" in err["error"]


def test_certify_huge_scale_without_a_cap_exit_2(tmp_path, capsys, monkeypatch):
    # the default cap is physical memory; a 10 MB host keeps the test short
    monkeypatch.setattr(certificate, "physical_memory_bytes", lambda: 10**7)
    path = tmp_path / "k8.stream"
    run_cli(capsys, "gen", "named", "--name", "complete(8)", "--k", "2", "--out", str(path))
    code, _, err = run_cli(
        capsys, "certify", str(path), "--mode", "dynamic", "--scale-c", "3000", "--delta", "0.1"
    )
    assert code == 2
    assert "SpaceExceeded" in err["error"]
    assert "exceeds cap 10000000" in err["error"]


def test_certify_offline_huge_scale_exit_2(tmp_path, capsys):
    path = tmp_path / "k8.stream"
    run_cli(capsys, "gen", "named", "--name", "complete(8)", "--k", "2", "--out", str(path))
    started = time.perf_counter()
    code, out, err = run_cli(
        capsys, "certify", str(path), "--mode", "offline", "--scale-c", "1e300"
    )
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out is None
    assert "forest bound" in err["error"]


def test_certify_dynamic_huge_scale_exit_2(tmp_path, capsys):
    path = tmp_path / "k8.stream"
    run_cli(capsys, "gen", "named", "--name", "complete(8)", "--k", "2", "--out", str(path))
    started = time.perf_counter()
    code, out, err = run_cli(
        capsys, "certify", str(path), "--mode", "dynamic", "--scale-c", "1e300", "--delta", "0.1"
    )
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out is None
    assert "forest bound" in err["error"]


def test_certify_huge_k_exit_2(tmp_path, capsys):
    # C * k^2 does not fit a float: the same refusal as an infinite count
    path = tmp_path / "k5.stream"
    run_cli(capsys, "gen", "named", "--name", "complete(5)", "--k", "2", "--out", str(path))
    huge = str(10**400)
    for argv in (
        ("certify", str(path), "--mode", "offline"),
        ("certify", str(path), "--mode", "dynamic"),
        ("check", str(path), "--mode", "offline", "--trials", "1"),
        ("check", str(path), "--mode", "dynamic", "--trials", "1"),
    ):
        code, out, err = run_cli(capsys, *argv, "--k", huge)
        assert code == 2 and out is None
        assert err["error"].startswith("ValueError") and "overflows" in err["error"]


def test_certify_live_multiplicity_overflow_exit_2(tmp_path, capsys, monkeypatch):
    # complete(5) inserts 10 edges; a bound of 3 stands in for 2^31 - 2
    monkeypatch.setattr(certificate, "MAX_LIVE_MULTIPLICITY", 3)
    path = tmp_path / "k5.stream"
    run_cli(capsys, "gen", "named", "--name", "complete(5)", "--k", "2", "--out", str(path))
    code, out, err = run_cli(capsys, "certify", str(path), "--mode", "dynamic")
    assert code == 2 and out is None
    assert err["error"].startswith("MultiplicityOverflowError")


def test_certify_dynamic_n_above_max_n_exit_2(tmp_path, capsys, monkeypatch):
    # refused before any subset is sampled: one [64, n] mask block alone is
    # tens of GB at n = 10^8
    def no_sampling(*args):
        raise AssertionError("subset_mask called")

    monkeypatch.setattr(certificate, "subset_mask", no_sampling)
    path = tmp_path / "huge.stream"
    path.write_text(f"{MAX_N + 1} 2\n0 1 +1\n")
    code, out, err = run_cli(capsys, "certify", str(path), "--mode", "dynamic")
    assert code == 2 and out is None
    assert err["error"].startswith("ValueError") and f"exceeds {MAX_N}" in err["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--mode", "offline"],
        ["certify", "--mode", "insertion"],
        ["check", "--trials", "1"],
        ["oracle"],
        ["oracle", "--k", "2"],
    ],
)
def test_header_n_above_max_n_exit_2_before_allocation(tmp_path, capsys, argv):
    # refused right after the header is read: no subset mask, adjacency
    # list or flow network of 10^8 vertices is ever asked for
    path = tmp_path / "huge.stream"
    path.write_text("100000000 2\n0 1 +1\n")
    started = time.perf_counter()
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out is None
    assert err["error"].startswith("ValueError") and f"exceeds {MAX_N}" in err["error"]


def test_certify_memory_error_exit_2(tmp_path, capsys, monkeypatch):
    def out_of_memory(self, e):
        raise MemoryError("no room for the validation graph")

    monkeypatch.setattr(certificate.StreamCertifier, "update", out_of_memory)
    path = tmp_path / "k5.stream"
    run_cli(capsys, "gen", "named", "--name", "complete(5)", "--k", "2", "--out", str(path))
    code, out, err = run_cli(capsys, "certify", str(path), "--mode", "dynamic")
    assert code == 2 and out is None
    assert err["error"] == "MemoryError: no room for the validation graph"


@pytest.mark.parametrize("kind", [AssertionError, RuntimeError, ZeroDivisionError])
def test_certify_internal_error_exit_2(tmp_path, capsys, monkeypatch, kind):
    # exit 1 means "not k-connected", so an unexpected exception must not reach it
    def broken(g, k):
        raise kind("broken oracle")

    monkeypatch.setattr(certificate, "is_k_connected", broken)
    path = tmp_path / "k5.stream"
    run_cli(capsys, "gen", "named", "--name", "complete(5)", "--k", "2", "--out", str(path))
    code, out, err = run_cli(capsys, "certify", str(path), "--mode", "offline")
    assert code == 2 and out is None
    assert err["error"] == f"{kind.__name__}: broken oracle"


def test_subprocess_entry_internal_error_exit_2(tmp_path):
    import subprocess
    import sys

    path = tmp_path / "k5.stream"
    write_stream(path, 5, 2, [UpdateEvent(u, v, 1) for u in range(5) for v in range(u + 1, 5)])
    script = (
        "import sys\n"
        "from streamvc import certificate, cli\n"
        "def broken(g, k):\n"
        "    raise AssertionError('broken oracle')\n"
        "certificate.is_k_connected = broken\n"
        "sys.argv[1:] = ['certify', sys.argv[1], '--mode', 'offline']\n"
        "cli.entry()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path)], capture_output=True, text=True
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr) == {"error": "AssertionError: broken oracle"}


def test_check_negative_trials_exit_2(tmp_path, capsys):
    path = tmp_path / "k5.stream"
    run_cli(capsys, "gen", "named", "--name", "complete(5)", "--k", "2", "--out", str(path))
    code, out, err = run_cli(capsys, "check", str(path), "--trials", "-1")
    assert code == 2 and out is None
    assert "trials" in err["error"]


@pytest.mark.parametrize("n", ["0", "-3"])
def test_gen_random_without_vertices_exit_2(tmp_path, capsys, n):
    path = tmp_path / "empty.stream"
    code, out, err = run_cli(capsys, "gen", "random", "--n", n, "--out", str(path))
    assert code == 2 and out is None
    assert "ValueError" in err["error"]
    assert not path.exists()


def test_gen_named_without_name_exit_2(tmp_path, capsys):
    path = tmp_path / "named.stream"
    with pytest.raises(SystemExit) as exit_:
        main(["gen", "named", "--out", str(path)])
    assert exit_.value.code == 2
    assert "--name" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["random", "--disjoint"],
        ["random", "--name", "complete(5)"],
        ["named", "--name", "complete(5)", "--density", "0.5"],
        ["named", "--name", "complete(5)", "--seed", "3"],
        ["named", "--n", "6", "--name", "complete(5)"],
        ["planted", "--delete-frac", "0.2"],
        ["disjointness", "--extra-st-edges", "2"],
    ],
    ids=" ".join,
)
def test_gen_flag_of_another_kind_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "x.stream"
    with pytest.raises(SystemExit) as exit_:
        main(["gen", *argv, "--out", str(path)])
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not path.exists()


def _readme_cli_section() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def _parser_options(parser: argparse.ArgumentParser) -> set[str]:
    """Every option string of a parser and of its subparsers, at any depth."""
    options = set(parser._option_string_actions)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _parser_options(sub)
    return options


def test_readme_cli_flags_are_parser_options():
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", _readme_cli_section()))
    options = _parser_options(build_parser())
    assert flags, "no --flag found in README's CLI section"
    assert flags <= options, f"README names flags no subcommand takes: {sorted(flags - options)}"


def test_readme_cli_command_lines_parse():
    lines = [
        line for line in _readme_cli_section().splitlines() if line.startswith("streamvc ")
    ]
    assert lines, "no streamvc command line found in README's CLI section"
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])
