import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from textprobe import cli, errors, evaluate, llm, train
from textprobe.cli import main
from textprobe.data import (
    EmbeddingBundle,
    SyntheticSpaceConfig,
    read_bundle,
    synthetic_class_means,
    write_bundle,
)
from textprobe.evaluate import ALL_METHODS
from textprobe.train import LinearClassifier


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "classes.json").write_text(json.dumps(["banded", "braided"]))
    profile = {
        "task_name": "dtd",
        "shift_kind": "fine_grained",
        "superclass_token": "texture",
        "question_templates": [
            "Describe what a {class} {superclass} looks like.",
            "How can you identify a {class} {superclass}?",
        ],
    }
    (tmp_path / "profile.json").write_text(json.dumps(profile))
    return tmp_path


def write_fixture_for_prompts(prompts_path, fixture_path, samples=2):
    with open(prompts_path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    with open(fixture_path, "w") as fh:
        for rec in records:
            for i in range(samples):
                fh.write(
                    json.dumps(
                        {
                            "prompt_id": rec["prompt_id"],
                            "class_id": rec["class_id"],
                            "class_name": rec["class_name"],
                            "sample_index": i,
                            "text": f"{rec['class_name']} description {i}",
                        }
                    )
                    + "\n"
                )
    return records


class TestGenPrompts:
    def test_writes_expected_count(self, workspace, capsys):
        out = workspace / "prompts.jsonl"
        code = run(
            "gen-prompts", "--profile", workspace / "profile.json",
            "--classes", workspace / "classes.json", "--out", out,
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if l.strip()]
        assert len(lines) == 4  # 2 classes x 2 templates
        texts = [json.loads(l)["text"] for l in lines]
        assert "Describe what a banded texture looks like." in texts

    def test_invalid_template_exits_2_and_names_index(self, workspace, capsys):
        profile = json.loads((workspace / "profile.json").read_text())
        profile["question_templates"] = ["fine", "missing placeholder"]
        (workspace / "profile.json").write_text(json.dumps(profile))
        code = run(
            "gen-prompts", "--profile", workspace / "profile.json",
            "--classes", workspace / "classes.json",
            "--out", workspace / "prompts.jsonl",
        )
        assert code == 2
        assert "template 0" in capsys.readouterr().err

    @pytest.mark.parametrize("name, doc, named", [
        ("profile.json", {"question_template": ["a {class}"]}, "question_template"),
        ("profile.json", {"shift_kind": "cross_domain", "domain_descriptors": "origami"},
         "domain_descriptors"),
        ("profile.json", {"superclass_token": 5}, "superclass_token"),
        ("profile.json", {"shift_kind": "cross_domain", "domain_descriptors": ["x", 3]},
         "domain_descriptors[1]"),
        ("profile.json", {"question_templates": [1]}, "question_templates[0]"),
        ("classes.json", [{"class_id": 1.7, "class_name": "b"},
                          {"class_id": 0, "class_name": "a"}], "classes[0].class_id"),
        ("classes.json", [{"class_id": True, "class_name": None}], "classes[0].class_id"),
        ("classes.json", ["a", 3], "classes[1]"),
    ])
    def test_bad_profile_or_class_file_exits_2_naming_it(self, workspace, capsys,
                                                        name, doc, named):
        path = workspace / name
        if name == "profile.json":
            doc = {**json.loads(path.read_text()), **doc}
        path.write_text(json.dumps(doc))
        out = workspace / "prompts.jsonl"
        assert run("gen-prompts", "--profile", workspace / "profile.json",
                   "--classes", workspace / "classes.json", "--out", out) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_generic_flag(self, workspace):
        out = workspace / "generic.jsonl"
        code = run(
            "gen-prompts", "--generic",
            "--classes", workspace / "classes.json", "--out", out,
        )
        assert code == 0
        texts = [json.loads(l)["text"] for l in out.read_text().splitlines()]
        assert "Describe what a banded looks like." in texts
        assert not any("texture" in t for t in texts)

    def test_missing_classes_file_exits_5(self, workspace):
        code = run(
            "gen-prompts", "--generic",
            "--classes", workspace / "nope.json",
            "--out", workspace / "p.jsonl",
        )
        assert code == 5


class TestFetch:
    def test_fixture_run_deterministic(self, workspace):
        prompts = workspace / "prompts.jsonl"
        run("gen-prompts", "--profile", workspace / "profile.json",
            "--classes", workspace / "classes.json", "--out", prompts)
        fixture = workspace / "fixture.jsonl"
        write_fixture_for_prompts(prompts, fixture, samples=2)
        out1, out2 = workspace / "d1.jsonl", workspace / "d2.jsonl"
        assert run("fetch", "--prompts", prompts, "--fixture", fixture,
                   "--samples", 2, "--out", out1) == 0
        assert run("fetch", "--prompts", prompts, "--fixture", fixture,
                   "--samples", 2, "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_warm_cache_needs_no_endpoint(self, workspace):
        # First pass fills the cache from the fixture; the second pass points
        # at an unreachable endpoint and must succeed purely from cache.
        prompts = workspace / "prompts.jsonl"
        run("gen-prompts", "--profile", workspace / "profile.json",
            "--classes", workspace / "classes.json", "--out", prompts)
        fixture = workspace / "fixture.jsonl"
        write_fixture_for_prompts(prompts, fixture, samples=2)
        cache = workspace / "cache"
        out1, out2 = workspace / "d1.jsonl", workspace / "d2.jsonl"
        assert run("fetch", "--prompts", prompts, "--fixture", fixture,
                   "--cache", cache, "--samples", 2, "--out", out1) == 0
        code = run("fetch", "--prompts", prompts,
                   "--endpoint", "http://127.0.0.1:1/unreachable",
                   "--cache", cache, "--samples", 2,
                   "--retries", 1, "--backoff", 0.0, "--out", out2)
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unreachable_endpoint_exits_3(self, workspace, capsys):
        prompts = workspace / "prompts.jsonl"
        run("gen-prompts", "--profile", workspace / "profile.json",
            "--classes", workspace / "classes.json", "--out", prompts)
        code = run("fetch", "--prompts", prompts,
                   "--endpoint", "http://127.0.0.1:1/unreachable",
                   "--retries", 1, "--backoff", 0.0,
                   "--out", workspace / "d.jsonl")
        assert code == 3
        err = capsys.readouterr().err
        assert "dtd/0/0/-" in err  # failed prompt ids are listed

    def test_partial_fixture_with_allow_partial(self, workspace, capsys):
        prompts = workspace / "prompts.jsonl"
        run("gen-prompts", "--profile", workspace / "profile.json",
            "--classes", workspace / "classes.json", "--out", prompts)
        fixture = workspace / "fixture.jsonl"
        records = write_fixture_for_prompts(prompts, fixture, samples=1)
        # Drop the last prompt's coverage.
        lines = fixture.read_text().splitlines()
        fixture.write_text("\n".join(lines[:-1]) + "\n")

        out = workspace / "d.jsonl"
        code = run("fetch", "--prompts", prompts, "--fixture", fixture,
                   "--samples", 1, "--backoff", 0.0, "--out", out)
        assert code == 3

        code = run("fetch", "--prompts", prompts, "--fixture", fixture,
                   "--samples", 1, "--backoff", 0.0, "--allow-partial", "--out", out)
        assert code == 0
        written = [l for l in out.read_text().splitlines() if l.strip()]
        assert len(written) == len(records) - 1


class TestBadPromptLines:
    @pytest.mark.parametrize("line", ['{"prompt_id":"a","class_id":"x","text":"t"}', "5",
                                      '{"prompt_id":"a","class_id":1.7,"text":"t"}',
                                      '{"prompt_id":"a","class_id":true,"text":"t"}',
                                      '{"prompt_id":"a","class_id":0,"text":null}'])
    def test_fetch_exits_2_and_writes_nothing(self, tmp_path, capsys, line):
        prompts = tmp_path / "prompts.jsonl"
        prompts.write_text(line + "\n")
        out = tmp_path / "d.jsonl"
        assert run("fetch", "--prompts", prompts, "--fixture", tmp_path / "none.jsonl",
                   "--out", out) == 2
        assert "line 1" in capsys.readouterr().err
        assert not out.exists()


class TestFetchOptions:
    @pytest.mark.parametrize("flag, value", [
        ("--backoff", -1), ("--max-in-flight", 0), ("--retries", 0),
    ])
    def test_invalid_option_exits_2_and_writes_nothing(self, workspace, capsys,
                                                       flag, value):
        prompts = workspace / "prompts.jsonl"
        run("gen-prompts", "--profile", workspace / "profile.json",
            "--classes", workspace / "classes.json", "--out", prompts)
        out = workspace / "d.jsonl"
        code = run("fetch", "--prompts", prompts,
                   "--endpoint", "http://127.0.0.1:1/unreachable",
                   flag, value, "--out", out)
        assert code == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_synthetic_quickstart(self, tmp_path):
        import time

        out = tmp_path / "clf.json"
        start = time.monotonic()
        code = run("train", "--synthetic", "--synth-classes", 10,
                   "--synth-dim", 128, "--out", out)
        assert code == 0
        assert time.monotonic() - start < 10.0
        clf = LinearClassifier.load(out)
        assert clf.num_classes == 10
        assert clf.dimension == 128

    def test_zero_steps_smoke(self, tmp_path):
        out = tmp_path / "clf.json"
        code = run("train", "--synthetic", "--steps", 0, "--out", out)
        assert code == 0
        clf = LinearClassifier.load(out)
        assert clf.train_meta["final_loss"] == clf.train_meta["initial_loss"]

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("train", "--synthetic", "--steps", 50, "--seed", 7, "--out", a) == 0
        assert run("train", "--synthetic", "--steps", 50, "--seed", 7, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_synthetic_init_is_not_the_class_means(self, tmp_path):
        # The space and the weight init must not share one random stream.
        out = tmp_path / "clf.json"
        assert run("train", "--synthetic", "--steps", 0, "--seed", 3, "--out", out) == 0
        weights = LinearClassifier.load(out).weights
        means, _ = synthetic_class_means(SyntheticSpaceConfig(seed=3))
        cosines = np.sum(weights * means, axis=1) / np.linalg.norm(weights, axis=1)
        assert np.all(np.abs(cosines) < 0.5)

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"stpes": 1}))
        code = run("train", "--synthetic", "--config", config,
                   "--out", tmp_path / "clf.json")
        assert code == 2
        assert "stpes" in capsys.readouterr().err
        assert not (tmp_path / "clf.json").exists()

    @pytest.mark.parametrize("text", ['{"steps": 5', '{"steps": "5"}', '{"steps": 2.5}',
                                      '{"learning_rate": true}', '[1, 2]'])
    def test_malformed_or_mistyped_config_exits_2(self, tmp_path, text):
        config = tmp_path / "train.json"
        config.write_text(text)
        code = run("train", "--synthetic", "--config", config,
                   "--out", tmp_path / "clf.json")
        assert code == 2
        assert not (tmp_path / "clf.json").exists()

    def test_full_file_pipeline(self, workspace):
        prompts = workspace / "prompts.jsonl"
        run("gen-prompts", "--profile", workspace / "profile.json",
            "--classes", workspace / "classes.json", "--out", prompts)
        fixture = workspace / "fixture.jsonl"
        write_fixture_for_prompts(prompts, fixture, samples=3)
        descriptions = workspace / "descriptions.jsonl"
        run("fetch", "--prompts", prompts, "--fixture", fixture,
            "--samples", 3, "--out", descriptions)
        bundle = workspace / "text.tape"
        assert run("synth-space", "--modality", "text", "--classes-count", 2,
                   "--dim", 32, "--from-descriptions", descriptions,
                   "--out", bundle) == 0
        clf_path = workspace / "clf.json"
        code = run("train", "--descriptions", descriptions,
                   "--classes", workspace / "classes.json",
                   "--text-bundle", bundle, "--steps", 100, "--out", clf_path)
        assert code == 0
        assert LinearClassifier.load(clf_path).num_classes == 2


@pytest.fixture
def eval_setup(tmp_path):
    """Bundles + classifier for a 10-class synthetic task."""
    images = tmp_path / "images.tape"
    assert run("synth-space", "--modality", "image", "--per-class", 40,
               "--out", images) == 0
    clf = tmp_path / "clf.json"
    assert run("train", "--synthetic", "--sigma", 0.1, "--smoothing", 0.1,
               "--out", clf) == 0
    classnames = tmp_path / "classnames.tape"
    names = [f"class_{i:02d}" for i in range(10)]
    (tmp_path / "classes.json").write_text(json.dumps(names))
    assert run("synth-space", "--modality", "text",
               "--from-classes", tmp_path / "classes.json", "--out", classnames) == 0
    return tmp_path, images, clf, classnames


class TestEval:
    def test_tap_method(self, eval_setup, capsys):
        tmp_path, images, clf, classnames = eval_setup
        report = tmp_path / "report.json"
        code = run("eval", "--images", images, "--classifier", clf,
                   "--methods", "tap", "--out", report)
        assert code == 0
        table = capsys.readouterr().out
        assert "tap" in table and "Mean" in table
        doc = json.loads(report.read_text())
        assert doc["rows"][0]["method"] == "tap"
        assert doc["rows"][0]["accuracy"] > 90.0

    def test_missing_input_exits_5_naming_flag(self, eval_setup, capsys):
        tmp_path, images, clf, classnames = eval_setup
        code = run("eval", "--images", images, "--methods", "clip-single")
        assert code == 5
        assert "--class-embeddings" in capsys.readouterr().err

    def test_multi_method_matrix(self, eval_setup, capsys):
        tmp_path, images, clf, classnames = eval_setup
        code = run("eval", "--images", images, "--classifier", clf,
                   "--class-embeddings", classnames,
                   "--classes", tmp_path / "classes.json",
                   "--steps", 200,
                   "--methods", "tap,clip-single,tot-cls")
        assert code == 0
        table = capsys.readouterr().out
        for m in ("tap", "clip-single", "tot-cls"):
            assert m in table

    def test_csv_format(self, eval_setup, capsys):
        tmp_path, images, clf, classnames = eval_setup
        code = run("eval", "--images", images, "--classifier", clf,
                   "--methods", "tap", "--format", "csv")
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("method,")

    def test_unknown_method_exits_2(self, eval_setup):
        tmp_path, images, clf, classnames = eval_setup
        assert run("eval", "--images", images, "--methods", "warp") == 2

    @pytest.mark.parametrize("command", ["eval", "refine"])
    def test_image_bundle_without_rows_exits_2_naming_it(self, eval_setup, capsys,
                                                         command):
        tmp_path, images, clf, classnames = eval_setup
        empty = tmp_path / "imgs.tape"
        write_bundle(EmbeddingBundle.from_matrix(np.zeros((0, 128)), labels=[]), empty)
        if command == "eval":
            argv = ["eval", "--images", empty, "--methods", "clip-single",
                    "--class-embeddings", classnames]
        else:
            argv = ["refine", "--classifier", clf, "--unlabeled", images,
                    "--eval-images", empty, "--out", tmp_path / "r.json"]
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert f"error: {empty}: image bundle has no rows" in captured.err
        assert captured.out == "" and not (tmp_path / "r.json").exists()

    def test_methods_checked_before_inputs(self, tmp_path):
        assert run("eval", "--images", tmp_path / "missing.tape",
                   "--methods", "tap,warp") == 2


class TestRefine:
    def test_threshold_one_is_identity_with_zero_delta(self, eval_setup, capsys):
        tmp_path, images, clf, classnames = eval_setup
        out = tmp_path / "refined.json"
        code = run("refine", "--classifier", clf, "--unlabeled", images,
                   "--threshold", 1.0, "--eval-images", images, "--out", out)
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["delta"] == 0.0
        assert doc["kept"] == 0
        before = LinearClassifier.load(clf)
        after = LinearClassifier.load(out)
        np.testing.assert_array_equal(before.weights, after.weights)

    def test_missing_bundle_exits_5(self, eval_setup):
        tmp_path, images, clf, classnames = eval_setup
        code = run("refine", "--classifier", clf,
                   "--unlabeled", tmp_path / "missing.tape",
                   "--out", tmp_path / "r.json")
        assert code == 5


class TestSynthSpace:
    def test_bundle_written_with_labels(self, tmp_path):
        out = tmp_path / "b.tape"
        assert run("synth-space", "--per-class", 3, "--classes-count", 4,
                   "--dim", 16, "--out", out) == 0
        bundle = read_bundle(out)
        assert bundle.count == 12
        assert list(bundle.labels) == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]

    def test_idempotent_output(self, tmp_path):
        a, b = tmp_path / "a.tape", tmp_path / "b.tape"
        run("synth-space", "--per-class", 5, "--out", a)
        run("synth-space", "--per-class", 5, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_needs_a_source(self, tmp_path):
        assert run("synth-space", "--out", tmp_path / "x.tape") == 5

    @pytest.mark.parametrize("per_class", [0, -1])
    def test_per_class_below_one_exits_2(self, tmp_path, capsys, per_class):
        out = tmp_path / "x.tape"
        assert run("synth-space", "--per-class", per_class, "--out", out) == 2
        assert "samples_per_class must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ['{"dimension": 16', '{"dimension": "abc"}', '[16]'])
    def test_malformed_or_mistyped_space_exits_2(self, tmp_path, text):
        space = tmp_path / "space.json"
        space.write_text(text)
        out = tmp_path / "x.tape"
        assert run("synth-space", "--space", space, "--per-class", 2, "--out", out) == 2
        assert not out.exists()


class TestRunAll:
    def test_demo_then_run_all(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        assert run("demo", "--workspace", ws, "--image-samples", 50,
                   "--steps", 200) == 0
        manifest = ws / "manifest.json"
        assert run("run-all", "--manifest", manifest) == 0
        out = capsys.readouterr().out
        for m in ("tap", "clip-single", "clip-dst", "tot-cls", "tot-dst"):
            assert m in out
        report = json.loads((ws / "report.json").read_text())
        assert len(report["rows"]) == 5
        markers = json.loads((ws / ".stage_markers.json").read_text())
        assert markers.get("eval") is True

    def test_rerun_is_idempotent(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        run("demo", "--workspace", ws, "--image-samples", 50, "--steps", 100)
        manifest = ws / "manifest.json"
        assert run("run-all", "--manifest", manifest) == 0
        first = {
            p.name: p.read_bytes()
            for p in ws.iterdir()
            if p.suffix in (".json", ".jsonl", ".tape")
        }
        assert run("run-all", "--manifest", manifest) == 0
        second = {
            p.name: p.read_bytes()
            for p in ws.iterdir()
            if p.suffix in (".json", ".jsonl", ".tape")
        }
        assert first == second

    def test_unknown_train_key_in_manifest_exits_2(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        assert run("demo", "--workspace", ws, "--image-samples", 20, "--steps", 5) == 0
        manifest = ws / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["train"]["stpes"] = 1
        manifest.write_text(json.dumps(doc))
        assert run("run-all", "--manifest", manifest) == 2
        assert "stpes" in capsys.readouterr().err

    def test_missing_manifest_exits_5(self, tmp_path):
        assert run("run-all", "--manifest", tmp_path / "nope.json") == 5

    @pytest.mark.parametrize("changes, named", [
        ({"stpes_typo": 1}, "stpes_typo"),
        ({"methods": ["tap", "clip-singel"]}, "clip-singel"),
        ({"methods": "tap"}, "methods"),
        ({"methods": []}, "methods"),
        ({"seed": "abc"}, "seed"),
        ({"image_samples_per_class": 2.5}, "image_samples_per_class"),
        ({"train": {"steps": "5"}}, "steps"),
        ({"synthetic_space": {"dimension": "abc"}}, "dimension"),
        ({"classes": 5}, "classes"),
        ({"workspace": 5}, "workspace"),
        ({"endpoint": 7}, "endpoint"),
        ({"dataset_name": 3}, "dataset_name"),
        ({"generic": "no"}, "generic"),
        ({"dst_templates": "a photo of a {class}."}, "dst_templates"),
        ({"dst_templates": [1]}, "dst_templates"),
        ({"llm": 5}, "llm"),
        ({"image_samples_per_class": 0}, "image_samples_per_class"),
        ({"llm": {"samples_per_prompt": 0}}, "llm.samples_per_prompt"),
        ({"llm": {"max_tokens": 0}}, "llm.max_tokens"),
        ({"llm": {"sampling_temperature": -0.5}}, "llm.sampling_temperature"),
    ])
    def test_bad_manifest_exits_2_before_any_stage(self, tmp_path, capsys, changes, named):
        ws = tmp_path / "ws"
        assert run("demo", "--workspace", ws, "--image-samples", 20, "--steps", 5) == 0
        manifest = ws / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), **changes}))
        assert run("run-all", "--manifest", manifest) == 2
        assert named in capsys.readouterr().err
        assert not (ws / "prompts.jsonl").exists()

    def test_misaligned_text_bundle_exits_4(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        assert run("demo", "--workspace", ws, "--image-samples", 20, "--steps", 5) == 0
        manifest = ws / "manifest.json"
        assert run("run-all", "--manifest", manifest) == 0
        sidecar = ws / "text.tape.manifest.json"
        doc = json.loads(sidecar.read_text())
        doc["labels"].reverse()
        sidecar.write_text(json.dumps(doc))
        (ws / "classifier.json").unlink()
        capsys.readouterr()
        assert run("run-all", "--manifest", manifest) == 4
        assert "align" in capsys.readouterr().err
        assert not (ws / "classifier.json").exists()
        # `textprobe train` rejects the same files with the same code.
        assert run("train", "--descriptions", ws / "descriptions.jsonl",
                   "--classes", ws / "classes.json", "--text-bundle", ws / "text.tape",
                   "--out", tmp_path / "clf.json") == 4


    @pytest.mark.parametrize("text", ["[]", "5", "{not json"])
    def test_markers_that_are_not_an_object_start_afresh(self, tmp_path, text):
        ws = tmp_path / "ws"
        assert run("demo", "--workspace", ws, "--image-samples", 10, "--steps", 5) == 0
        (ws / ".stage_markers.json").write_text(text)
        assert run("run-all", "--manifest", ws / "manifest.json") == 0
        markers = json.loads((ws / ".stage_markers.json").read_text())
        assert markers == dict.fromkeys(("gen-prompts", "fetch", "bundles", "train", "eval"),
                                        True)

    def test_subcommands_write_what_run_all_writes(self, tmp_path, capsys):
        ws, hand = tmp_path / "ws", tmp_path / "hand"
        assert run("demo", "--workspace", ws, "--image-samples", 20, "--steps", 30) == 0
        assert run("run-all", "--manifest", ws / "manifest.json") == 0
        doc = json.loads((ws / "manifest.json").read_text())
        space, train = doc["synthetic_space"], doc["train"]
        space_flags = ["--dim", space["dimension"], "--classes-count", space["classes"],
                       "--sigma-intra", space["sigma_intra"], "--gap", space["gap"],
                       "--seed", space["seed"]]
        train_flags = ["--steps", train["steps"], "--sigma", train["noise_sigma"],
                       "--smoothing", train["label_smoothing"],
                       "--seed", cli.stage_seed(doc["seed"], "train")]
        classes = ws / "classes.json"
        hand.mkdir()
        assert run("gen-prompts", "--profile", ws / "profile.json", "--classes", classes,
                   "--out", hand / "prompts.jsonl") == 0
        assert run("fetch", "--prompts", hand / "prompts.jsonl",
                   "--fixture", ws / "fixture.jsonl",
                   "--samples", doc["llm"]["samples_per_prompt"],
                   "--out", hand / "descriptions.jsonl") == 0
        assert run("synth-space", "--modality", "text", *space_flags,
                   "--from-descriptions", hand / "descriptions.jsonl",
                   "--out", hand / "text.tape") == 0
        assert run("synth-space", "--modality", "image", *space_flags,
                   "--per-class", doc["image_samples_per_class"],
                   "--out", hand / "images.tape") == 0
        assert run("synth-space", "--modality", "text", *space_flags,
                   "--from-classes", classes, "--out", hand / "classnames.tape") == 0
        assert run("train", "--descriptions", hand / "descriptions.jsonl",
                   "--classes", classes, "--text-bundle", hand / "text.tape",
                   *train_flags, "--out", hand / "classifier.json") == 0
        assert run("eval", "--images", hand / "images.tape",
                   "--methods", "tap,clip-single,tot-cls",
                   "--classifier", hand / "classifier.json",
                   "--class-embeddings", hand / "classnames.tape", "--classes", classes,
                   *train_flags, "--dataset-name", doc["dataset_name"],
                   "--out", hand / "report.json") == 0
        for name in ("prompts.jsonl", "descriptions.jsonl", "text.tape",
                     "text.tape.manifest.json", "images.tape", "images.tape.manifest.json",
                     "classnames.tape", "classnames.tape.manifest.json", "classifier.json"):
            assert (hand / name).read_bytes() == (ws / name).read_bytes(), name

        def rows(path):
            return {r["method"]: r for r in json.loads(path.read_text())["rows"]}

        by_hand, by_run_all = rows(hand / "report.json"), rows(ws / "report.json")
        for method in ("tap", "clip-single", "tot-cls"):
            assert by_hand[method] == by_run_all[method], method


def test_demo_with_an_invalid_space_exits_2_and_creates_nothing(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert run("demo", "--workspace", ws, "--dim", 1) == 2
    assert "dimension" in capsys.readouterr().err
    assert not ws.exists()


@pytest.mark.parametrize("flag, key", [("--samples", "llm.samples_per_prompt"),
                                       ("--image-samples", "image_samples_per_class")])
def test_demo_with_a_count_below_one_exits_2_and_creates_nothing(tmp_path, capsys,
                                                                flag, key):
    ws = tmp_path / "ws"
    assert run("demo", "--workspace", ws, flag, 0) == 2
    assert key in capsys.readouterr().err
    assert not ws.exists()


class TestParser:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2


# The exit code `main` returns for each error class. A new class must be added
# here, so that it chooses its code.
EXIT_CODES = {
    "InvalidProfile": 2, "InvalidConfig": 2, "InvalidSmoothing": 2, "ParseError": 2,
    "FormatError": 2, "TruncatedFile": 2, "UnknownClassId": 2, "EmptyDataset": 2,
    "MissingClassDescriptions": 2, "EmptyReport": 2,
    "EndpointUnreachable": 3, "MalformedResponse": 3, "TransportError": 3,
    "ZeroVector": 4, "DimensionMismatch": 4, "EmptyVector": 4, "NonFiniteValue": 4,
    "ShapeMismatch": 4, "NonFiniteLoss": 4,
    "MissingInput": 5, "MissingLabels": 5,
}
ERROR_CLASSES = sorted(
    (obj for obj in vars(errors).values() if isinstance(obj, type)
     and issubclass(obj, errors.TextProbeError) and obj is not errors.TextProbeError),
    key=lambda c: c.__name__,
)


class TestExitCodes:
    @pytest.mark.parametrize("error_class", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_main_returns_the_class_exit_code(self, monkeypatch, tmp_path, capsys,
                                              error_class):
        def fail(args):
            raise error_class("boom")

        monkeypatch.setattr(cli, "cmd_demo", fail)
        assert main(["demo", "--workspace", str(tmp_path)]) == EXIT_CODES[error_class.__name__]
        assert "error: boom" in capsys.readouterr().err

    def test_failed_prompt_ids_are_listed(self, monkeypatch, tmp_path, capsys):
        def fail(args):
            raise errors.EndpointUnreachable("down", failed_prompt_ids=["p/1", "p/2"])

        monkeypatch.setattr(cli, "cmd_demo", fail)
        assert main(["demo", "--workspace", str(tmp_path)]) == 3
        assert "failed prompt ids: p/1, p/2" in capsys.readouterr().err


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    # perfbench/tracing.py wraps functions by name on these modules; a name
    # the package stops importing there makes install() raise KeyError.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    owners = (cli, evaluate, llm, train, train.LinearClassifier, llm.HttpTransport,
              llm.FixtureTransport, evaluate.EvalReport)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert vars(cli)["read_bundle"] is not before[0]["read_bundle"]
    finally:
        tracer.uninstall()
    for owner, attrs in zip(owners, before):
        after = dict(vars(owner))
        assert after.keys() == attrs.keys()
        assert all(after[name] is value for name, value in attrs.items()), owner


def test_benchmark_tracer_sees_every_layer(tmp_path, monkeypatch):
    # A stage that calls a function other than through the `cli` name the
    # tracer wraps would drop that layer's spans from the benchmark.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    ws = tmp_path / "ws"
    assert run("demo", "--workspace", ws, "--image-samples", 10, "--steps", 5) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert run("run-all", "--manifest", ws / "manifest.json", "--force") == 0
    finally:
        tracer.uninstall()
    names = {span["name"] for span in tracer.spans}
    expected = {
        "prompts.render", "prompts.write", "llm.fetch", "llm.write", "data.encode",
        "data.bundle_write", "data.bundle_read", "data.dataset", "train.fit",
        "train.save", "train.load", "evaluate.classifier", "evaluate.zero_shot",
        "evaluate.ensemble", "evaluate.tot", "evaluate.report",
    }
    assert expected <= names, sorted(expected - names)


class TestManifestBlocks:
    @pytest.mark.parametrize("block, key, value", [
        ("synthetic_space", "dimesion", 64),
        ("llm", "max_tokns", 1),
    ])
    def test_misspelled_key_exits_2_before_any_stage(self, tmp_path, capsys,
                                                     block, key, value):
        ws = tmp_path / "ws"
        assert run("demo", "--workspace", ws, "--image-samples", 20, "--steps", 5) == 0
        manifest = ws / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc[block][key] = value
        manifest.write_text(json.dumps(doc))
        assert run("run-all", "--manifest", manifest) == 2
        assert key in capsys.readouterr().err
        assert not (ws / "prompts.jsonl").exists()

    def test_mistyped_llm_value_exits_2_before_any_stage(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        assert run("demo", "--workspace", ws, "--image-samples", 20, "--steps", 5) == 0
        manifest = ws / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["llm"]["max_tokens"] = "60"
        manifest.write_text(json.dumps(doc))
        assert run("run-all", "--manifest", manifest) == 2
        assert "llm.max_tokens" in capsys.readouterr().err
        assert not (ws / "prompts.jsonl").exists()

    def test_synth_space_rejects_an_unknown_key(self, tmp_path, capsys):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"dimension": 16, "clases": 3}))
        out = tmp_path / "x.tape"
        assert run("synth-space", "--space", space, "--per-class", 2, "--out", out) == 2
        assert "clases" in capsys.readouterr().err
        assert not out.exists()


def test_images_are_normalized_once_per_invocation(tmp_path, monkeypatch, capsys):
    ws = tmp_path / "ws"
    assert run("demo", "--workspace", ws, "--image-samples", 23, "--steps", 5) == 0
    shapes = []
    for module in (evaluate, train):
        monkeypatch.setattr(module, "normalize_rows",
                            lambda m, f=module.normalize_rows: shapes.append(np.shape(m)) or f(m))
    assert run("run-all", "--manifest", ws / "manifest.json") == 0
    image_shape = read_bundle(ws / "images.tape").matrix.shape
    assert image_shape == (230, 128)
    assert shapes.count(image_shape) == 1
    assert len(json.loads((ws / "report.json").read_text())["rows"]) == 5

    shapes.clear()
    capsys.readouterr()
    assert run("eval", "--images", ws / "images.tape", "--methods", ",".join(ALL_METHODS),
               "--classifier", ws / "classifier.json", "--classes", ws / "classes.json",
               "--class-embeddings", ws / "classnames.tape",
               "--dst-embeddings", ws / "dst.tape", "--steps", 5) == 0
    assert shapes.count(image_shape) == 1
    out = capsys.readouterr().out
    assert all(m in out for m in ALL_METHODS)
