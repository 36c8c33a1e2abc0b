"""Tests for the command-line interface."""

import contextlib
import io

import pytest

from repro.cli import _read_addresses, build_parser, main
from repro.ipv6.sets import TEXT_CHUNK_ROWS


@pytest.fixture
def address_file(tmp_path, structured_set):
    path = tmp_path / "addresses.txt"
    lines = [a.compressed() for a in structured_set.sample(
        400, __import__("numpy").random.default_rng(0)
    ).addresses()]
    path.write_text("# sample\n" + "\n".join(lines) + "\n")
    return str(path)


def per_address_text(rows) -> str:
    """The per-address text the bulk emitters must reproduce."""
    return "".join(a.compressed() + "\n" for a in rows.addresses())


def emitted(argv, sink, tmp_path) -> str:
    """Run the CLI with stdout redirected into a text-mode file (as
    perfbench captures ``repro generate``) or an ``io.StringIO``, which
    has no ``.buffer``."""
    if sink == "file":
        path = tmp_path / "out.txt"
        with open(path, "w", encoding="utf-8") as f, \
                contextlib.redirect_stdout(f):
            assert main(argv) == 0
        return path.read_bytes().decode("ascii")
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0
    return buffer.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_args(self):
        args = build_parser().parse_args(["analyze", "f.txt", "--width", "16"])
        assert args.file == "f.txt" and args.width == 16

    def test_backend_flag_rejected(self, capsys):
        # There is one exclusion store, so no subcommand takes --backend.
        for argv in (["generate", "f.txt"], ["scan", "R5"],
                     ["serve", "f.txt"], ["ingest", "S1"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv + ["--backend", "memory"])
            assert "unrecognized arguments: --backend" in (
                capsys.readouterr().err
            )


class TestCommands:
    def test_analyze(self, address_file, capsys):
        assert main(["analyze", address_file]) == 0
        out = capsys.readouterr().out
        assert "H_S=" in out
        assert "Seg." in out
        assert "Bayesian network" in out

    def test_generate(self, address_file, capsys):
        assert main(["generate", address_file, "--count", "20"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 20
        assert all(":" in line for line in out)

    def test_generate_deterministic(self, address_file, capsys):
        main(["generate", address_file, "--count", "5", "--seed", "9"])
        first = capsys.readouterr().out
        main(["generate", address_file, "--count", "5", "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second

    def test_dataset(self, capsys):
        assert main(["dataset", "R5", "--count", "50"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 50

    def test_dataset_unknown(self):
        with pytest.raises(KeyError):
            main(["dataset", "S9"])

    def test_scan_small(self, capsys):
        assert main([
            "scan", "R5", "--train", "200", "--count", "500",
        ]) == 0
        out = capsys.readouterr().out
        assert "success" in out

    def test_analyze_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO("2001:db8::1\n2001:db8::2\n" * 30)
        )
        assert main(["analyze", "-"]) == 0
        assert "H_S=" in capsys.readouterr().out

    def test_generate_matches_direct_library_path(
        self, address_file, capsys
    ):
        """The service-routed CLI serves the same rows as a direct
        EntropyIP.fit + generate_addresses call."""
        import numpy as np

        from repro.core.pipeline import EntropyIP

        main(["generate", address_file, "--count", "25", "--seed", "8"])
        served = capsys.readouterr().out.strip().splitlines()
        analysis = EntropyIP.fit(_read_addresses(address_file), width=32)
        direct = [
            a.compressed()
            for a in analysis.generate_addresses(
                25, np.random.default_rng(8)
            )
        ]
        assert served == direct



class TestServeCommand:
    def test_synthetic_load(self, address_file, capsys):
        assert main([
            "serve", address_file, "--requests", "6", "--clients", "2",
            "--count", "50",
        ]) == 0
        out = capsys.readouterr().out
        assert "served 6 requests x 50 rows" in out
        assert "requests/s=" in out and "p99=" in out

    def test_line_protocol(self, address_file, capsys, monkeypatch):
        import io

        script = "gen alice 4\nmember alice ::1\nstats\nquit\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        assert main(["serve", address_file, "--name", "m"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert all(":" in line for line in lines[:4])  # 4 candidates
        assert "::1 new" in out
        assert '"completed"' in out

    def test_line_protocol_gen_matches_service_stream(
        self, address_file, capsys, monkeypatch
    ):
        """Protocol-served candidates equal the library service path."""
        import io

        from repro.serve import HitlistService

        monkeypatch.setattr("sys.stdin", io.StringIO("gen a 3\ngen a 3\n"))
        assert main(["serve", address_file, "--name", "m"]) == 0
        served = capsys.readouterr().out.strip().splitlines()
        with HitlistService() as svc:
            svc.fit("m", _read_addresses(address_file), width=32)
            direct = [
                a.compressed()
                for _ in range(2)
                for a in svc.generate("m", "a", 3).addresses()
            ]
        assert served == direct

    def test_line_protocol_errors_do_not_kill_loop(
        self, address_file, capsys, monkeypatch
    ):
        import io

        script = "member ghost ::1\nbogus request\ngen ok 2\nquit\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        assert main(["serve", address_file, "--name", "m"]) == 0
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert len(captured.out.strip().splitlines()) == 2

    def test_line_protocol_ingest_verb(self, address_file, capsys, monkeypatch):
        import io

        script = "ingest 2001:db8::1 2001:db8::2\nstats\nquit\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        assert main(["serve", address_file, "--name", "m"]) == 0
        out = capsys.readouterr().out
        assert "ingested 2 rows, drift" in out
        assert '"ingest"' in out  # pipeline counters in the stats dump

    def test_line_protocol_health_verb(self, address_file, capsys,
                                       monkeypatch):
        import io
        import json

        monkeypatch.setattr("sys.stdin", io.StringIO("health\nquit\n"))
        assert main(["serve", address_file, "--name", "m"]) == 0
        health = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert health["status"] == "ok"
        assert health["models"] == {"m": 1}
        assert health["timeouts"] == 0
        assert "pending" in health and "exec" not in health

    def test_line_protocol_survives_unforeseen_errors(
        self, address_file, capsys, monkeypatch
    ):
        """Any exception inside a request — not just the typed ones —
        yields an error line and the loop keeps serving."""
        import io

        script = (
            "gen alice notanumber\n"   # ValueError from int()
            "member alice zzzz\n"      # malformed address tokens
            "checkpoint\n"             # no --checkpoint-dir configured
            "gen alice 2\n"
            "quit\n"
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        assert main(["serve", address_file, "--name", "m"]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 3
        assert len(captured.out.strip().splitlines()) == 2

    def test_checkpoint_dir_resumes_streams_bit_identically(
        self, address_file, capsys, monkeypatch, tmp_path
    ):
        import io

        ckpt = str(tmp_path / "ckpt")
        # Uninterrupted reference: three batches in one process.
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("gen a 3\ngen a 3\ngen a 3\nquit\n")
        )
        assert main(["serve", address_file, "--name", "m"]) == 0
        reference = capsys.readouterr().out.strip().splitlines()
        # Two batches, checkpoint on exit...
        monkeypatch.setattr("sys.stdin", io.StringIO("gen a 3\ngen a 3\nquit\n"))
        assert main(["serve", address_file, "--name", "m",
                     "--checkpoint-dir", ckpt]) == 0
        first = capsys.readouterr().out.strip().splitlines()
        # ...then a new process restores and serves the third batch.
        monkeypatch.setattr("sys.stdin", io.StringIO("gen a 3\nquit\n"))
        assert main(["serve", address_file, "--name", "m",
                     "--checkpoint-dir", ckpt]) == 0
        resumed = capsys.readouterr()
        assert "restored 1 checkpointed stream(s)" in resumed.err
        assert first + resumed.out.strip().splitlines() == reference

    def test_checkpoint_verb_writes_on_demand(
        self, address_file, capsys, monkeypatch, tmp_path
    ):
        import io
        import os

        ckpt = str(tmp_path / "ckpt")
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("gen a 2\ncheckpoint\nquit\n")
        )
        assert main(["serve", address_file, "--name", "m",
                     "--checkpoint-dir", ckpt]) == 0
        out = capsys.readouterr().out
        assert "checkpointed to" in out
        assert os.path.exists(os.path.join(ckpt, "sessions.ckpt"))

    def test_line_protocol_keeps_request_order(
        self, address_file, capsys, monkeypatch
    ):
        """Chunked ``gen`` output and printed replies interleave in
        request order on one stdout."""
        from repro.serve import HitlistService

        with HitlistService() as svc:
            svc.fit("m", _read_addresses(address_file), width=32)
            first = svc.generate("m", "a", 40)
            second = svc.generate("m", "a", 40)
        token = first.addresses()[0].compressed()
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(f"gen a 40\nmember a {token}\ngen a 40\n")
        )
        assert main(["serve", address_file, "--name", "m"]) == 0
        expected = per_address_text(first) + f"{token} seen\n"
        assert capsys.readouterr().out == expected + per_address_text(second)


class TestBulkEmitters:
    """``generate`` and ``dataset`` write the per-address text byte for
    byte, across more than one vectorized chunk."""

    COUNT = TEXT_CHUNK_ROWS + 1000

    @pytest.fixture(scope="class")
    def r1_file(self, tmp_path_factory, r1_small):
        path = tmp_path_factory.mktemp("r1") / "r1.txt"
        path.write_text(per_address_text(r1_small.sample(1000, seed=0)))
        return str(path)

    @pytest.mark.parametrize("sink", ["file", "stringio"])
    @pytest.mark.parametrize("width", [32, 16])
    def test_generate(self, r1_file, tmp_path, sink, width):
        from repro.serve import HitlistService

        with HitlistService() as svc:
            svc.fit(r1_file, _read_addresses(r1_file), width=width)
            rows = svc.generate(r1_file, "cli", self.COUNT, seed=5)
        argv = ["generate", r1_file, "--count", str(self.COUNT),
                "--seed", "5", "--width", str(width)]
        assert emitted(argv, sink, tmp_path) == per_address_text(rows)

    @pytest.mark.parametrize("sink", ["file", "stringio"])
    def test_dataset(self, tmp_path, sink):
        from repro.datasets.networks import build_network

        rows = build_network("R1").sample(self.COUNT, seed=2)
        argv = ["dataset", "R1", "--count", str(self.COUNT), "--seed", "2"]
        assert emitted(argv, sink, tmp_path) == per_address_text(rows)


class TestIngestCommand:
    def test_ingest_args(self):
        args = build_parser().parse_args(
            ["ingest", "S1", "--threshold", "0.07", "--renumber-at", "2"]
        )
        assert args.name == "S1"
        assert args.threshold == 0.07
        assert args.renumber_at == 2

    def test_quiet_feed_never_refits(self, capsys):
        assert main([
            "ingest", "S1", "--snapshots", "3", "--sample-size", "300",
            "--batches", "2", "--churn", "0.1", "--threshold", "0.9",
            "--count", "50",
        ]) == 0
        out = capsys.readouterr().out
        assert "0 refits" in out
        assert "model version 1 " in out

    def test_renumber_event_triggers_refit(self, capsys):
        assert main([
            "ingest", "S1", "--snapshots", "4", "--sample-size", "500",
            "--batches", "3", "--renumber-at", "2", "--threshold", "0.05",
            "--count", "50",
        ]) == 0
        out = capsys.readouterr().out
        assert "refit in" in out  # at least one drift-triggered refit
        assert "0 refits" not in out
        assert "0 repeats" in out  # monitor stream never repeated a row
        # Drift, not every batch, triggers a refit: at least one of the
        # nine batches refits and at least one does not.
        batches = [line for line in out.splitlines()
                   if line.startswith("snapshot ")]
        refits = [line for line in batches if ", refit in " in line]
        assert 1 <= len(refits) < len(batches) == 9, out

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_killed_feed_resumes_bit_identically(self, capsys, tmp_path):
        """Kill the replay mid-feed (deterministic injected shutdown),
        then resume from the per-batch checkpoint: the remaining
        batches score and refit exactly as the uninterrupted run."""
        from repro.errors import ServiceClosedError
        from repro.faults import FaultPlan

        ckpt = str(tmp_path / "feed.ckpt")
        base = [
            "ingest", "S1", "--snapshots", "3", "--sample-size", "400",
            "--batches", "2", "--renumber-at", "2", "--threshold", "0.05",
            "--count", "30",
        ]
        assert main(base) == 0
        reference = capsys.readouterr().out.strip().splitlines()

        # service.worker hits: 1 = fit, 2 = the monitor draw, 3 = the
        # first ingest batch, 4 = the second — the one we kill.
        plan = FaultPlan.parse("service.worker@4:raise=SystemExit")
        with plan.armed():
            with pytest.raises(ServiceClosedError):
                main(base + ["--checkpoint", ckpt])
        assert plan.fired() == 1
        capsys.readouterr()

        assert main(base + ["--checkpoint", ckpt, "--resume", ckpt]) == 0
        resumed = capsys.readouterr().out.strip().splitlines()
        assert resumed[0].startswith("resumed from")
        assert "1 batches (200 rows) already ingested" in resumed[0]

        def drift_lines(lines):
            # Refit wall-clock varies run to run; everything before it
            # (rows, drift score, batch coordinates) must not.
            return [
                line.split(", refit")[0]
                for line in lines
                if line.startswith("snapshot ")
            ]

        assert drift_lines(resumed) == drift_lines(reference)[1:]
        ref_final = next(l for l in reference if l.startswith("ingested "))
        res_final = next(l for l in resumed if l.startswith("ingested "))
        # Same final model: version and content digest agree.
        assert (
            ref_final.split("model version ")[1]
            == res_final.split("model version ")[1]
        )


class TestExtensionCommands:
    def test_mi(self, address_file, capsys):
        assert main(["mi", address_file]) == 0
        out = capsys.readouterr().out
        assert "mutual information" in out

    def test_compare_stable(self, address_file, capsys):
        assert main(["compare", address_file, address_file]) == 0
        out = capsys.readouterr().out
        assert "temporal snapshot comparison" in out
        assert "RENUMBERING" not in out

    def test_report(self, address_file, capsys):
        assert main(["report", address_file, "--count", "3"]) == 0
        out = capsys.readouterr().out
        assert "## Bayesian network" in out
        assert "## Generated candidate targets" in out
