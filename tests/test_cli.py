import numpy as np
import pytest

from gkm.cli import main
from gkm.data import load_libsvm, save_libsvm, synth_two_gaussians, hide_labels
from gkm.optimizer import decision_values, load_model

from test_bounds import decimal_M_G, ulps_from


@pytest.fixture()
def data_file(tmp_path):
    full = synth_two_gaussians(30, 2, 4.0, seed=0)
    hidden, _ = hide_labels(full, 0.6, seed=0)
    path = tmp_path / "train.txt"
    save_libsvm(hidden, path)
    return path


def run(argv):
    return main([str(a) for a in argv])


class TestTrainPredictEval:
    def test_train_then_predict_then_eval(self, tmp_path, data_file, capsys):
        model = tmp_path / "model.txt"
        trace = tmp_path / "trace.csv"
        code = run(
            ["train", data_file, "--loss", "hinge", "--p", "2", "--C", "1",
             "--C-prime", "0.05", "--T", "500", "--seed", "1",
             "--model-out", model, "--trace-out", trace,
             "--diagnostics-every", "100"]
        )
        assert code == 0
        assert model.exists() and trace.exists()
        assert trace.read_text().startswith("t,J_avg,norm_w,norm_g")

        out = tmp_path / "preds.txt"
        assert run(["predict", data_file, "--model-in", model, "--out", out]) == 0
        preds = [int(x) for x in out.read_text().split()]
        assert set(preds) <= {-1, 1}
        assert len(preds) == 30

        # eval rejects partially labeled data with a validation exit code
        assert run(["eval", data_file, "--model-in", model]) == 2
        full = synth_two_gaussians(30, 2, 4.0, seed=0)
        full_path = tmp_path / "full.txt"
        save_libsvm(full, full_path)
        assert run(["eval", full_path, "--model-in", model]) == 0
        captured = capsys.readouterr()
        assert "accuracy" in captured.out

    def test_summary_names_the_support_size(self, tmp_path, data_file, capsys):
        """The summary's support k of n is the model file's support count."""
        model = tmp_path / "model.txt"
        assert run(["train", data_file, "--T", "200", "--model-out", model]) == 0
        summary = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("trained"))
        k = int(next(line for line in model.read_text().splitlines() if line.startswith("support ")).split()[1])
        assert 0 < k <= 30
        assert f", support {k} of 30, final J=" in summary

    def test_reports_norm_maxima_against_the_bounds(self, data_file, capsys):
        """A certified config prints max||w_t||/M and max||g_t||/G, both <= 1;
        a violated one prints neither."""
        assert run(["train", data_file, "--C", "1", "--C-prime", "0.05", "--T", "500"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        ratios = dict(field.split("=") for field in line.split())
        assert set(ratios) == {"max||w_t||/M", "max||g_t||/G"}
        assert all(0.0 < float(r) <= 1.0 for r in ratios.values())
        assert run(["train", data_file, "--C", "1", "--C-prime", "0.3", "--T", "50"]) == 0
        assert "max||w_t||/M" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "graph",
        [["--graph", "full"], ["--graph", "knn", "--k", "3"], ["--graph", "eps", "--radius", "2.0"]],
        ids=["full", "knn", "eps"],
    )
    def test_model_records_the_graph_sigma_s(self, tmp_path, data_file, graph):
        model = tmp_path / "model.txt"
        code = run(["train", data_file, *graph, "--sigma-s", "0.5", "--sigma-l", "1.0",
                    "--T", "50", "--model-out", model])
        assert code == 0
        assert "sigma_s 0.5" in model.read_text().splitlines()

    def test_huge_feature_index_trains_like_renumbered(self, tmp_path):
        """Feature index 10^15 gives the model of the same file with that
        index renumbered to 3, bit for bit."""
        lines = "+1 1:0.5 2:0.25 {0}:1.0\n-1 1:-0.5 2:0.75\n0 1:0.1 {0}:0.2\n"
        decisions = []
        for index in (10**15, 3):
            data, model = tmp_path / f"d{index}.txt", tmp_path / f"m{index}.txt"
            data.write_text(lines.format(index))
            assert run(["train", data, "--T", "50", "--model-out", model]) == 0
            dataset, _ = load_libsvm(data)
            decisions.append(decision_values(load_model(model), dataset.points))
        assert np.array_equal(decisions[0], decisions[1])

    def test_byte_identical_artifacts_for_same_seed(self, tmp_path, data_file):
        files = []
        for tag in ("a", "b"):
            model = tmp_path / f"model_{tag}.txt"
            trace = tmp_path / f"trace_{tag}.csv"
            code = run(
                ["train", data_file, "--loss", "hinge", "--T", "300",
                 "--seed", "7", "--model-out", model, "--trace-out", trace,
                 "--diagnostics-every", "50"]
            )
            assert code == 0
            files.append((model.read_bytes(), trace.read_bytes()))
        assert files[0] == files[1]

    def test_hide_fraction_flag(self, tmp_path):
        full = synth_two_gaussians(20, 2, 4.0, seed=3)
        path = tmp_path / "full.txt"
        save_libsvm(full, path)
        model = tmp_path / "m.txt"
        code = run(
            ["train", path, "--hide-fraction", "0.5", "--seed", "2",
             "--T", "100", "--model-out", model]
        )
        assert code == 0

    def test_hide_fraction_and_hide_mask_exclude_each_other(self, tmp_path):
        path = tmp_path / "full.txt"
        save_libsvm(synth_two_gaussians(20, 2, 4.0, seed=3), path)
        mask = tmp_path / "mask.txt"
        mask.write_text("0\n")
        with pytest.raises(SystemExit) as exc:
            run(["train", path, "--hide-fraction", "0.5", "--hide-mask", mask, "--T", "20"])
        assert exc.value.code == 2

    def test_predictions_follow_the_file_order(self, tmp_path, data_file):
        """Unlabeled lines before a labeled one: one prediction per line, in
        file order, not in the labeled-first order the loader uses."""
        model, data, out = tmp_path / "m.txt", tmp_path / "mixed.txt", tmp_path / "p.txt"
        assert run(["train", data_file, "--T", "300", "--model-out", model]) == 0
        data.write_text("0 1:-3.0\n+1 1:3.0\n0 1:-2.5\n")
        assert run(["predict", data, "--model-in", model, "--out", out]) == 0
        assert out.read_text().split() == ["-1", "+1", "-1"]

    @pytest.mark.parametrize("flags", [["--C", "nan"], ["--C-prime", "nan"], ["--sigma-s", "nan"],
                                       ["--epsilon", "nan"], ["--graph", "eps", "--radius", "nan"],
                                       # a square, or twice it, outside the normal floats
                                       ["--sigma-f", "1e160"], ["--sigma-l", "1e-170"],
                                       ["--sigma-s", "1e200"], ["--graph", "eps", "--radius", "1e200"],
                                       # a model file must read its epsilon back
                                       ["--epsilon", "inf"], ["--epsilon", "1e400"]])
    def test_nan_parameter_exit_two(self, data_file, flags, capsys):
        assert run(["train", data_file, "--T", "20", *flags]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("index", ["99", "-1"])
    def test_hide_mask_index_outside_dataset_exit_two(self, tmp_path, index, capsys):
        path = tmp_path / "full.txt"
        save_libsvm(synth_two_gaussians(10, 2, 4.0, seed=3), path)
        mask = tmp_path / "mask.txt"
        mask.write_text(f"0\n{index}\n")
        code = run(["train", path, "--hide-mask", mask, "--T", "50",
                    "--model-out", tmp_path / "m.txt"])
        assert code == 2
        assert "mask indices must lie in [0, 10)" in capsys.readouterr().err


class TestBounds:
    def test_certified_config_exit_zero(self, capsys):
        code = run(["bounds", "--p", "2", "--C", "1", "--C-prime", "0.05",
                    "--sigma-f", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "condition_holds true" in out
        assert "M 1.666" in out

    def test_violated_config_exit_nonzero(self, capsys):
        code = run(["bounds", "--p", "2", "--C", "1", "--C-prime", "0.3",
                    "--sigma-f", "1"])
        assert code == 1
        assert "violated" in capsys.readouterr().out

    def test_t0_printed_with_eps(self, capsys):
        code = run(["bounds", "--p", "2", "--C", "1", "--C-prime", "0.1",
                    "--sigma-f", "1", "--eps", "0.1", "--delta", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        # G carries a 2-ulp float artifact from b/(1-a), so the ceiling may
        # land one above the exact-arithmetic 40000
        from gkm.bounds import compute_bounds, min_iterations

        expected = min_iterations(0.1, 0.05, compute_bounds(1.0, 0.1, 2.0, 1.0, 1.0).G)
        assert f"T0 {expected}" in out
        assert expected in (40000, 40001)

    @pytest.mark.parametrize("flag", ["--p", "--C", "--C-prime", "--sigma-f", "--A"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_input_exit_two(self, flag, value, capsys):
        argv = {"--p": "2", "--C": "1", "--C-prime": "0.1", flag: value}
        assert run(["bounds", *[x for kv in argv.items() for x in kv]]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_underflowed_a_certifies_with_infinite_M(self, capsys):
        code = run(["bounds", "--p", "3", "--C", "1", "--C-prime", "1e-300",
                    "--sigma-f", "1e-10"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert "a 0.0" in out and "M inf" in out and "condition_holds true" in out

    @pytest.mark.parametrize("argv", [
        # (p-1)a overflows: M = 1/(2a) ~ 4.2e-309, once printed as 0.0
        ["--p", "3", "--C", "1e-300", "--A", "1e-10", "--C-prime", "1", "--sigma-f", "1.71e102"],
        # M^(p-1) overflows: G = 1.5 M + b ~ 3.1e298, once printed as inf
        ["--p", "3", "--C", "1", "--C-prime", "1e-300"],
    ])
    def test_M_and_G_near_the_float_range_match_decimal(self, argv, capsys):
        assert run(["bounds", *argv]) == 0
        out = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
        want_M, want_G = decimal_M_G(float(out["a"]), float(out["b"]), float(out["p"]))
        assert out["condition_holds"] == "true"
        assert ulps_from(float(out["M"]), want_M) <= 2.0
        assert ulps_from(float(out["G"]), want_G) <= 2.0

    def test_infinite_G_has_no_T0_exit_two(self, capsys):
        code = run(["bounds", "--p", "2.0000000001", "--C", "1", "--C-prime", "0.01",
                    "--eps", "0.1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "G inf" in captured.out.splitlines()
        assert captured.err.startswith("error:") and "G = inf" in captured.err


class TestLabelprop:
    def test_four_chain(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("# a chain\n1 2 1.0\n\n2 3 1.0  # middle\n3 4 1.0\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("1\n\n0  # free\n# vertex 3\n0\n-1\n")
        out = tmp_path / "out.txt"
        assert run(["labelprop", edges, labels, "--out", out]) == 0
        rows = [line.split() for line in out.read_text().strip().splitlines()]
        values = [float(r[0]) for r in rows]
        hard = [int(r[1]) for r in rows]
        assert values[1] == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert values[2] == pytest.approx(-1.0 / 3.0, abs=1e-10)
        assert hard == [1, 1, -1, -1]

    def test_nan_weight_exit_two(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("1 2 nan\n2 3 1.0\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("1\n0\n-1\n")
        assert run(["labelprop", edges, labels]) == 2
        assert "weights must lie in (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["inf", "1e300", "0.5"])
    def test_bad_label_line_exit_two(self, tmp_path, capsys, bad):
        edges = tmp_path / "edges.txt"
        edges.write_text("1 2 1.0\n2 3 1.0\n")
        labels = tmp_path / "labels.txt"
        labels.write_text(f"1\n{bad}\n-1\n")
        assert run(["labelprop", edges, labels]) == 2
        assert "line 2:" in capsys.readouterr().err

    def test_disconnected_exit_code(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("1 2 1.0\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("1\n0\n0\n")
        assert run(["labelprop", edges, labels]) == 2


class TestGraphExport:
    def test_knn_export(self, tmp_path, data_file):
        out = tmp_path / "edges.txt"
        code = run(["graph", "export", data_file, "--graph", "knn", "--k", "3",
                    "--sigma-s", "1.0", "--out", out])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows and all(len(r.split()) == 3 for r in rows)

    def test_vertices_follow_the_file_order(self, tmp_path):
        """Vertex i of the edge list is the i-th data line, so the edges line
        up with a labels file written in data order."""
        data, edges, labels = tmp_path / "d.txt", tmp_path / "e.txt", tmp_path / "l.txt"
        data.write_text("0 1:0.0\n+1 1:1.0\n0 1:2.0\n-1 1:3.0\n")
        assert run(["graph", "export", data, "--sigma-s", "1.0", "--out", edges]) == 0
        rows = [line.split() for line in edges.read_text().splitlines()]
        pairs = {(int(i), int(j)): float(w) for i, j, w in rows}
        # every pair but the labeled-labeled one (lines 2 and 4)
        assert set(pairs) == {(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)}
        for (i, j), w in pairs.items():
            assert w == pytest.approx(np.exp(-0.5 * (i - j) ** 2), rel=1e-12)
        labels.write_text("0\n1\n0\n-1\n")
        out = tmp_path / "f.txt"
        assert run(["labelprop", edges, labels, "--out", out]) == 0
        hard = [int(line.split()[1]) for line in out.read_text().splitlines()]
        assert hard[1] == 1 and hard[3] == -1

    @pytest.mark.parametrize("graph", ["full", "eps"])
    def test_one_point_file_exports_no_edges(self, tmp_path, graph, capsys):
        """One unlabeled line has no pair: an empty edge file, exit 0."""
        data, out = tmp_path / "one.txt", tmp_path / "edges.txt"
        data.write_text("0 1:0.5\n")
        assert run(["graph", "export", data, "--graph", graph, "--radius", "1", "--out", out]) == 0
        assert capsys.readouterr().out.startswith("0 edges written") and out.read_text() == ""

    def test_full_export_small(self, tmp_path, data_file):
        out = tmp_path / "edges_full.txt"
        code = run(["graph", "export", data_file, "--graph", "full", "--out", out])
        assert code == 0

    @pytest.mark.parametrize("graph", ["full", "knn", "eps"])
    def test_fully_labeled_file_exits_two(self, tmp_path, graph, capsys):
        """A fully labeled file has no edges: every graph kind fails alike,
        the eps graph at a radius that covers every pair, and writes no edge
        file."""
        data, out = tmp_path / "labeled.txt", tmp_path / "edges.txt"
        save_libsvm(synth_two_gaussians(30, 2, 4.0, seed=0), data)
        argv = ["graph", "export", data, "--graph", graph, "--k", "3", "--radius", "100", "--out", out]
        assert run(argv) == 2
        assert "labeled-labeled" in capsys.readouterr().err and not out.exists()


class TestSynth:
    def test_writes_expected_count(self, tmp_path):
        out = tmp_path / "synth.txt"
        code = run(["synth", "--n", "50", "--dim", "3", "--separation", "2.5",
                    "--seed", "4", "--out", out])
        assert code == 0
        ds, _ = load_libsvm(out)
        assert ds.n == 50 and ds.dense()[0].shape[1] == 3

    def test_bayes_accuracy_flag(self, tmp_path):
        out = tmp_path / "synth.txt"
        code = run(["synth", "--n", "10", "--dim", "1",
                    "--bayes-accuracy", "0.95", "--seed", "4", "--out", out])
        assert code == 0

    @pytest.mark.parametrize("how", [["--separation", "5", "--bayes-accuracy", "0.6"], [],
                                     ["--bayes-accuracy", "1.5"]])
    def test_exactly_one_valid_separation_source(self, tmp_path, how):
        out = tmp_path / "synth.txt"
        with pytest.raises(SystemExit) as exc:
            run(["synth", "--n", "10", "--dim", "2", *how, "--out", out])
        assert exc.value.code == 2 and not out.exists()

    def test_non_finite_separation_exit_two(self, tmp_path):
        out = tmp_path / "synth.txt"
        assert run(["synth", "--n", "10", "--dim", "2", "--separation", "nan", "--out", out]) == 2
        assert not out.exists()


class TestConverge:
    def test_tiny_sweep(self, tmp_path):
        full = synth_two_gaussians(16, 2, 4.0, seed=5)
        hidden, _ = hide_labels(full, 0.5, seed=5)
        path = tmp_path / "d.txt"
        save_libsvm(hidden, path)
        out = tmp_path / "conv.csv"
        code = run(["converge", path, "--losses", "hinge", "--p-list", "2",
                    "--T-grid", "30,60", "--seeds", "0,1", "--C", "1",
                    "--C-prime", "0.05", "--out", out])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("loss,p,T,seed,delta_jt")
        assert len(lines) == 1 + 4


def malformed_models():
    """Edits of a valid model file's lines, one per malformation."""

    def drop(prefix):
        return lambda lines: [ln for ln in lines if not ln.startswith(prefix)]

    def replace(prefix, line):
        return lambda lines: [line if ln.startswith(prefix) else ln for ln in lines]

    def repeat(prefix, line):
        """Add line after the line starting with prefix."""
        return lambda lines: [x for ln in lines for x in ([ln, line] if ln.startswith(prefix) else [ln])]

    def support_section(edit):
        """edit(first support point line) -> lines that replace the section."""

        def apply(lines):
            at = next(i for i, ln in enumerate(lines) if ln.startswith("support "))
            return lines[:at] + edit(lines[at + 1])

        return apply

    def support_token(at, token):
        """Replace token `at` of the first support point line (coefficient,
        label, first feature)."""

        def edit(first):
            tokens = first.split()
            tokens[at] = token
            return ["support 1", " ".join(tokens), "end"]

        return support_section(edit)

    cases = [
        ("no-kernel", drop("kernel ")),
        ("no-config", drop("config ")),
        ("no-sigma_s", drop("sigma_s ")),
        ("kernel-not-numeric", replace("kernel ", "kernel sigma_f one sigma_l 1.0 offset 0.0")),
        ("kernel-short", replace("kernel ", "kernel sigma_f 1.0")),
        ("kernel-offset-nonzero", replace("kernel ", "kernel sigma_f 1.0 sigma_l 1.0 offset 0.5")),
        ("config-missing-C", replace("config ", "config loss hinge tau 0.5 epsilon 0.1 p 2.0")),
        ("sigma_s-not-numeric", replace("sigma_s ", "sigma_s wide")),
        ("support-count-not-numeric", replace("support ", "support three")),
        ("support-truncated", support_section(lambda first: ["support 3", first, "end"])),
        ("support-cut-off", support_section(lambda first: ["support 3", first])),
        ("coefficient-not-numeric", support_section(
            lambda first: ["support 1", "x" + first.partition(" ")[2], "end"])),
        ("coefficient-nan", support_token(0, "nan")),
        ("coefficient-inf", support_token(0, "inf")),
        ("feature-nan", support_token(2, "1:nan")),
        ("support-label-5", support_token(1, "5")),
        ("config-C-nan", replace("config ", "config loss hinge tau 0.5 epsilon 0.1 p 2.0 C nan "
                                 "C_prime 0.05 T 200 seed 0 objective_mode auto")),
        ("sigma_s-nan", replace("sigma_s ", "sigma_s nan")),
        ("sigma_s-negative", replace("sigma_s ", "sigma_s -1.0")),
        ("sigma_s-zero", replace("sigma_s ", "sigma_s 0.0")),
        ("kernel-repeated", repeat("kernel ", "kernel sigma_f 2.0 sigma_l 1.0 offset 0.0")),
        # sigma_f^2 overflows; sigma_l^2 underflows past the normal range
        ("kernel-sigma_f-huge", replace("kernel ", "kernel sigma_f 1e200 sigma_l 1.0")),
        ("kernel-sigma_l-tiny", replace("kernel ", "kernel sigma_f 1.0 sigma_l 1e-170")),
        ("text-after-end", lambda lines: lines + ["junk"]),
    ]
    return [pytest.param(edit, id=case) for case, edit in cases]


class TestMalformedModel:
    @pytest.fixture(scope="class")
    def model_lines(self, tmp_path_factory):
        full = synth_two_gaussians(30, 2, 4.0, seed=0)
        hidden, _ = hide_labels(full, 0.6, seed=0)
        root = tmp_path_factory.mktemp("model")
        save_libsvm(hidden, root / "train.txt")
        assert run(["train", root / "train.txt", "--T", "200", "--model-out", root / "m.txt"]) == 0
        return (root / "m.txt").read_text().splitlines()

    @pytest.mark.parametrize("edit", malformed_models())
    def test_predict_exit_two(self, tmp_path, data_file, model_lines, edit, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(edit(list(model_lines))) + "\n")
        assert run(["predict", data_file, "--model-in", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line" in err  # a ParseError, not a raw message

    def test_bad_support_label_keeps_its_message(self, tmp_path, data_file, model_lines, capsys):
        """A support label outside {-1, 0, +1} fails with the data files'
        label message, not rewrapped as a bad line."""
        at = next(i for i, ln in enumerate(model_lines) if ln.startswith("support ")) + 1
        tokens = model_lines[at].split()
        tokens[1] = "5"
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join([*model_lines[:at], " ".join(tokens), *model_lines[at + 1:]]) + "\n")
        assert run(["predict", data_file, "--model-in", bad]) == 2
        assert capsys.readouterr().err == f"error: line {at + 1}: label must be -1, 0 or +1, got 5\n"


class TestValidationErrors:
    def test_missing_file_exit_two(self):
        assert run(["predict", "/nonexistent/data.txt", "--model-in", "/nonexistent/m.txt"]) == 2

    def test_converge_infinite_p_exit_two(self, tmp_path, data_file):
        out = tmp_path / "conv.csv"
        code = run(["converge", data_file, "--losses", "hinge", "--p-list", "2,inf",
                    "--T-grid", "30", "--seeds", "0", "--out", out])
        assert code == 2 and not out.exists()

    def test_diverging_run_exit_two(self, data_file, tmp_path, capsys):
        """p = 3 with a huge C': the slope |t|^2 overflows at step 9. A huge
        C: the norms overflow while every coefficient stays finite, so the
        run ends at t = T. Neither writes a model."""
        out = tmp_path / "model.txt"
        for flags, message in [
            (["--p", "3", "--C-prime", "1e5"], "non-finite decision value or gradient at step 9"),
            (["--T", "500", "--loss", "logistic", "--C", "1e300"], "non-finite norm or objective at step 500"),
        ]:
            assert run(["train", data_file, *flags, "--model-out", out]) == 2
            assert f"error: {message}" in capsys.readouterr().err
            assert not out.exists()

    def test_bad_loss_value_rejected_by_argparse(self, data_file):
        with pytest.raises(SystemExit):
            run(["train", data_file, "--loss", "square"])
