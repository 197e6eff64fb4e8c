"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from test_cif import CIF_CORPUS, CIF_EXPECTED
from test_gdsii import GDSII_CORPUS, GDSII_EXPECTED
from test_import_graph import CLI_IMPORT

from repro.cli import main
from repro.core.jobfile import read_job
from repro.layout import generators
from repro.layout.cif import write_cif
from repro.layout.gdsii import write_gdsii


@pytest.fixture
def gds_file(tmp_path):
    path = tmp_path / "grating.gds"
    write_gdsii(generators.grating(lines=5), path)
    return str(path)


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--workload", "grating"]) == 0
        out = capsys.readouterr().out
        assert "figures:" in out
        assert "raster" in out

    def test_demo_with_pec(self, capsys):
        assert main(["demo", "--workload", "line_and_pad", "--pec"]) == 0
        assert "dose range" in capsys.readouterr().out

    def test_demo_vsb_fracture(self, capsys):
        assert main(["demo", "--workload", "grating", "--fracture", "vsb"]) == 0

    def test_demo_pec_matrix_modes_agree(self, capsys):
        outputs = {}
        for mode in ("dense", "sparse"):
            assert (
                main(
                    [
                        "demo",
                        "--workload",
                        "line_and_pad",
                        "--pec",
                        "--pec-matrix",
                        mode,
                    ]
                )
                == 0
            )
            out = capsys.readouterr().out
            assert f"pec matrix: {mode}" in out
            outputs[mode] = [
                line
                for line in out.splitlines()
                if "dose range" in line
            ]
        assert outputs["dense"] == outputs["sparse"]

    def test_demo_pec_hybrid_with_grid_cell(self, capsys):
        assert (
            main(
                [
                    "demo",
                    "--workload",
                    "line_and_pad",
                    "--pec",
                    "--pec-matrix",
                    "hybrid",
                    "--pec-grid-cell",
                    "0.4",
                ]
            )
            == 0
        )
        assert "pec matrix: hybrid" in capsys.readouterr().out

    def test_rejects_unknown_pec_matrix(self, capsys):
        with pytest.raises(SystemExit):
            main(["demo", "--workload", "grating", "--pec-matrix", "csr"])

    def test_unknown_workload(self, capsys):
        assert main(["demo", "--workload", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        ["--max-shot", "--energy", "--dose", "--field-size", "--address-unit"],
    )
    def test_rejects_nonpositive_knobs_without_traceback(self, flag, capsys):
        # argparse exits 2 with a one-line usage error, never a traceback.
        with pytest.raises(SystemExit) as excinfo:
            main(["demo", "--workload", "grating", flag, "-1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "must be positive" in err
        assert "Traceback" not in err

    def test_bad_combo_exits_cleanly(self, capsys):
        # ValueError from pipeline construction surfaces as `error: ...`
        # on stderr with exit code 2, not a stack trace.
        assert main(["demo", "--workload", "nope", "--pec"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") or "unknown workload" in err
        assert "Traceback" not in err


class TestDenseMatrixThatDoesNotFit:
    """numpy's ``_ArrayMemoryError`` out of the dense PEC matrix is an
    unworkable option combination, so it ends like one: exit 2 and one
    ``error:`` line naming the ways out."""

    @staticmethod
    def error_lines(capsys):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return [line for line in err.splitlines() if line]

    def test_serial_run_is_one_error_line(self, dense_matrix_does_not_fit, capsys):
        assert main(["demo", "--workload", "line_and_pad", "--pec"]) == 2
        (line,) = self.error_lines(capsys)
        assert line.startswith("error: the dense exposure matrix of one shard, ")
        assert "--field-size" in line and "--pec-matrix sparse" in line
        assert dense_matrix_does_not_fit() == {os.getpid()}

    def test_pooled_run_carries_it_across_the_pickle_boundary(
        self, dense_matrix_does_not_fit, capsys
    ):
        argv = ["demo", "--workload", "grating", "--pec", "--field-size", "10"]
        assert main(argv + ["--workers", "2"]) == 2
        (line,) = self.error_lines(capsys)
        assert line.startswith("error: the dense exposure matrix of one shard, ")
        pids = dense_matrix_does_not_fit()
        assert pids and os.getpid() not in pids  # raised in pool workers

    def test_the_other_backends_are_the_way_out(self, dense_matrix_does_not_fit):
        argv = ["demo", "--workload", "line_and_pad", "--pec", "--pec-matrix"]
        assert main(argv + ["sparse"]) == 0
        assert main(argv + ["hybrid"]) == 0
        assert dense_matrix_does_not_fit() == set()


def loaded_modules(script):
    """Run ``script`` in a fresh interpreter; the ``sys.modules`` names
    it ends with (import cost is pinned by name, never by seconds)."""
    result = subprocess.run(
        [sys.executable, "-c", script + "\nprint(*sorted(sys.modules))"],
        check=True,
        capture_output=True,
        text=True,
    )
    return set(result.stdout.splitlines()[-1].split())


def heavy(modules, *roots):
    return sorted(
        m for m in modules if any(m == r or m.startswith(r + ".") for r in roots)
    )


class TestImportSurface:
    """Third-party packages heavier than numpy load where they are
    called, so start-up and non-PEC runs never pay for them."""

    DEMO = (
        "import sys\n"
        "from repro.cli import main\n"
        "assert main(['demo', '--workload', {workload!r}, '--field-size', '15',"
        " '--machine', 'vsb', '--output', {out!r}{extra}]) == 0"
    )

    def demo_modules(self, tmp_path, extra="", workload="fzp"):
        out = tmp_path / "out.ebj"
        script = self.DEMO.format(workload=workload, out=str(out), extra=extra)
        modules = loaded_modules(script)
        assert out.stat().st_size > 0
        return modules

    def test_importing_the_cli_loads_no_scipy_or_networkx(self):
        modules = loaded_modules("import sys\nimport repro.cli")
        assert heavy(modules, "repro") == sorted(CLI_IMPORT)  # PEC loads on use
        assert heavy(modules, "scipy", "networkx") == []

    def test_prep_without_pec_never_imports_scipy_or_numpy_ma(self, tmp_path):
        modules = self.demo_modules(tmp_path)
        assert heavy(modules, "scipy", "networkx") == []
        # np.unique imports numpy.ma on numpy >= 2.3; the kernel sorts.
        assert heavy(modules, "numpy.ma") == []

    def test_dense_pec_imports_scipy_special_only(self, tmp_path):
        modules = self.demo_modules(tmp_path, ", '--pec'")
        assert "scipy.special" in modules
        # scipy.sparse belongs to the CSR builder; the dense one scatters.
        unused = ("scipy.sparse", "scipy.signal", "scipy.stats", "networkx")
        assert heavy(modules, *unused) == []

    def test_hybrid_pec_imports_fft_and_sparse_not_signal(self, tmp_path):
        modules = self.demo_modules(
            tmp_path, ", '--pec', '--pec-matrix', 'hybrid'", workload="grating"
        )
        assert {"scipy.fft", "scipy.sparse"} <= modules
        # The β-grid convolution is psf.convolve_same on scipy.fft; the
        # signal package would drag in the other seven.
        unused = (
            "scipy.signal",
            "scipy.stats",
            "scipy.spatial",
            "scipy.linalg",
            "scipy.ndimage",
            "scipy.optimize",
            "scipy.interpolate",
            "scipy.integrate",
        )
        assert heavy(modules, *unused) == []


class TestPrep:
    def test_prep_gdsii(self, gds_file, capsys):
        assert main(["prep", gds_file]) == 0
        out = capsys.readouterr().out
        assert "figures:   5" in out

    def test_prep_with_dose(self, gds_file, capsys):
        assert main(["prep", gds_file, "--dose", "10"]) == 0

    def test_prep_writes_jobfile(self, gds_file, tmp_path, capsys):
        out_path = tmp_path / "job.ebj"
        assert main(["prep", gds_file, "--output", str(out_path)]) == 0
        assert "wrote machine job file" in capsys.readouterr().out
        job = read_job(out_path)
        assert job.figure_count() == 5


class TestStats:
    def test_stats(self, gds_file, capsys):
        assert main(["stats", gds_file]) == 0
        out = capsys.readouterr().out
        assert "cells:" in out
        assert "compaction" in out


class TestLayoutInputs:
    """``prep`` reads its input through one reader per format, whichever
    mode runs: resident and ``--stream`` accept the same files, reject
    the same files with the same one-line error, and write the same
    bytes."""

    @staticmethod
    def prep_both_modes(path, tmp_path, capsys):
        """Per mode: exit code, stderr, and the artifact bytes."""
        runs = []
        for mode, flags in (("resident", []), ("streamed", ["--stream"])):
            job = tmp_path / f"{mode}.ebj"
            code = main(
                ["prep", str(path), *flags, "--field-size", "10"]
                + ["--machine", "vsb", "--output", str(job)]
            )
            artifacts = [
                file.read_bytes() if file.exists() else None
                for file in (job, job.with_suffix(".vsb.ebp"))
            ]
            runs.append((code, capsys.readouterr().err, artifacts))
        return runs

    def test_stats_reads_cif(self, tmp_path, capsys):
        # That ``prep`` reads it to the same bytes in every mode is the
        # conformance matrix's ``source=cif`` cells.
        path = tmp_path / "contacts.cif"
        write_cif(generators.contact_array(columns=3, rows=2, hierarchical=True), path)
        assert main(["stats", str(path)]) == 0
        assert "polygons (flat):      6" in capsys.readouterr().out

    def test_structure_without_bgnstr_keeps_its_geometry(self, tmp_path, capsys):
        # Losing the cell's polygon with exit 0 is the one outcome
        # not allowed; both modes read it.
        path = tmp_path / "headless.gds"
        path.write_bytes(GDSII_CORPUS["strname_without_bgnstr"])
        resident, streamed = self.prep_both_modes(path, tmp_path, capsys)
        assert resident[:2] == streamed[:2] == (0, "")
        assert resident[2] == streamed[2] and None not in resident[2]
        assert read_job(tmp_path / "streamed.ebj").figure_count() == 1

    def test_zero_area_polygon_from_a_foreign_file_preps_to_no_figure(
        self, tmp_path, capsys
    ):
        # Our writers refuse such a record; another tool's file may hold
        # one.  It is not an error and not a figure, in either mode.
        path = tmp_path / "sliver.gds"
        path.write_bytes(GDSII_CORPUS["zero_area_boundary"])
        resident, streamed = self.prep_both_modes(path, tmp_path, capsys)
        assert resident[:2] == streamed[:2] == (0, "")
        assert resident[2] == streamed[2] and None not in resident[2]
        assert read_job(tmp_path / "streamed.ebj").figure_count() == 1

    @pytest.mark.parametrize(
        "suffix, corpus, expected, cases",
        [
            (
                ".gds",
                GDSII_CORPUS,
                GDSII_EXPECTED,
                ["empty_layer", "empty_datatype", "empty_width", "empty_mag"]
                + ["empty_angle", "path_odd_xy", "sref_xy_one_int"]
                + ["aref_colrow_zero", "strname_inside_element"],
            ),
            (
                ".cif",
                CIF_CORPUS,
                CIF_EXPECTED,
                ["unterminated_comment", "translate_cut_short", "mirror_cut_short"],
            ),
        ],
    )
    def test_malformed_layouts_exit_2_with_one_line(
        self, suffix, corpus, expected, cases, tmp_path, capsys
    ):
        for case in cases:
            data = corpus[case]
            path = tmp_path / f"{case}{suffix}"
            path.write_bytes(data if isinstance(data, bytes) else data.encode())
            message = f"error: {expected[case][1]}\n"
            for code, err, artifacts in self.prep_both_modes(path, tmp_path, capsys):
                assert (code, err, artifacts) == (2, message, [None, None])


class TestArgParsing:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


class TestFaultKnobsAndInjection:
    def test_fault_flags_parse(self, capsys):
        assert (
            main(
                [
                    "demo",
                    "--workload",
                    "grating",
                    "--shard-retries",
                    "0",
                    "--shard-timeout",
                    "30",
                ]
            )
            == 0
        )

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--shard-retries", "-1", "must be >= 0"),
            ("--shard-timeout", "0", "must be positive"),
            ("--shard-timeout", "-2", "must be positive"),
        ],
    )
    def test_bad_fault_flags_exit_cleanly(self, flag, value, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["demo", "--workload", "grating", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


class TestKernelFallbackLine:
    def test_printed_only_when_the_kernel_degraded(self, capsys):
        from repro.cli import _print_result
        from repro.core.pipeline import PreparationPipeline
        from repro.geometry.polygon import Polygon

        pipe = PreparationPipeline(field_size=20.0)
        clean = pipe.run([Polygon.rectangle(0, 0, 5, 5)])
        _print_result(clean)
        assert "kernel:" not in capsys.readouterr().out

        # Beyond 2**53 dbu the fast kernel hands the sweep to the
        # reference engine; the CLI must say so.
        far = (1 << 53) * 1e-3 * 2.0
        degraded = pipe.run([Polygon.rectangle(far, far, far + 5.0, far + 5.0)])
        _print_result(degraded)
        out = capsys.readouterr().out
        assert "kernel:    1 fast-path fallbacks (1 coord-limit" in out


class TestDistributedCli:
    def test_work_rejects_bad_endpoint(self, capsys):
        assert main(["work", "--connect", "not-an-endpoint"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "host:port" in err

    def test_work_takes_no_cache(self, capsys):
        # The preparing process stores every result; a worker only
        # computes, so the flag is gone rather than ignored.
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "work",
                    "--connect",
                    "127.0.0.1:1",
                    "--idle-exit",
                    "0.1",
                    "--cache-dir",
                    "x",
                ]
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err

    def test_demo_distributed_requires_endpoint(self, capsys):
        assert main(["demo", "--dispatch", "distributed"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "workers-endpoint" in err or "workers_endpoint" in err

    def test_work_idle_exit_drains(self, capsys):
        from repro.dist import coordinator_for, shutdown_coordinators

        server = coordinator_for("127.0.0.1:0")
        host, port = server.server_address[:2]
        try:
            assert (
                main(
                    [
                        "work",
                        "--connect",
                        f"{host}:{port}",
                        "--idle-exit",
                        "0.2",
                    ]
                )
                == 0
            )
        finally:
            shutdown_coordinators()
        out = capsys.readouterr().out
        assert "0 lease(s) executed" in out
