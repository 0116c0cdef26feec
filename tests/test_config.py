import inspect
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from rede.cli import run_command
from rede.config import (_BACKENDS, _PATHS, _TEXT_KEYS, GATEWAY_URL_ENV, SECTION_KEYS, build_engine,
                         load_run_config)
from rede.dense import HashingEncoder, HttpEncoder, write_embeddings
from rede.corpus import Query
from rede.errors import ConfigError, DimMismatch, check_count, check_real
from rede.fusion import FusionConfig
from rede.gateway import HttpGateway, MockGateway
from rede.hyde import HydeConfig
from rede.pipeline import PipelineConfig

DOCS = [("d1", "apple banana fruit"), ("d2", "satellite launch orbit"), ("d3", "market trading")]

# every run-config key; there is no format key, since corpus and query files show their format
ACCEPTED_KEYS = {
    "paths.corpus", "paths.queries", "paths.qrels", "paths.embeddings_manifest",
    "paths.sparse_index", "paths.judge_templates_dir", "paths.hyde_templates_dir",
    "pipeline.initial_retriever", "pipeline.k_initial", "pipeline.max_kstar",
    "pipeline.default_policy", "pipeline.output_depth", "pipeline.llm_max_workers",
    "fusion.alpha", "fusion.pool_depth",
    "hyde.n_samples", "hyde.temperature", "hyde.max_new_tokens", "hyde.task_template",
    "hyde.context_docs", "hyde.max_context_doc_tokens",
    "judge.backend", "judge.template_id", "judge.positive_token", "judge.negative_token",
    "judge.threshold", "judge.max_doc_tokens", "judge.top_logprobs",
    "gateway.backend", "gateway.url", "gateway.model", "gateway.timeout", "gateway.retries",
    "gateway.backoff_s", "gateway.mock_script",
    "gateway.logprob_delay_s", "gateway.text_delay_s",
    "encoder.backend", "encoder.url",
}


def _write_data(root: Path) -> None:
    """corpus.jsonl, queries.tsv, qrels.txt, mock.json and a dim-64 bundle in emb/."""
    (root / "corpus.jsonl").write_text(
        "\n".join(json.dumps({"_id": d, "text": t}) for d, t in DOCS) + "\n")
    (root / "queries.tsv").write_text("q1\tapple fruit\n")
    (root / "qrels.txt").write_text("q1 0 d1 1\n")
    (root / "mock.json").write_text(json.dumps([{"match_substring": "", "text": "fruit"}]))
    ids = [d for d, _ in DOCS]
    write_embeddings(str(root / "emb"), ids, HashingEncoder(64).encode([t for _, t in DOCS]))


@pytest.fixture
def data(tmp_path, monkeypatch):
    monkeypatch.delenv(GATEWAY_URL_ENV, raising=False)
    _write_data(tmp_path)
    return tmp_path


def _paths(root: Path) -> dict:
    return {
        "corpus": str(root / "corpus.jsonl"),
        "queries": str(root / "queries.tsv"),
        "qrels": str(root / "qrels.txt"),
        "embeddings_manifest": str(root / "emb" / "embeddings.manifest.json"),
    }


def _config_file(root: Path, cfg) -> str:
    path = root / "run_config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _build(root: Path, sections: dict, method: str = "rede"):
    cfg = load_run_config(_config_file(root, {"paths": _paths(root), **sections}))
    return build_engine(cfg, method)


def test_accepted_key_set_is_unchanged():
    assert {f"{s}.{k}" for s, keys in SECTION_KEYS.items() for k in keys} == ACCEPTED_KEYS


@pytest.mark.parametrize("cfg, key", [
    ({"bogus": {}}, "'bogus'"),
    ({"judge": {"bogus": 1}}, "'judge.bogus'"),  # bm25 never builds a judge
    ({"hyde": {"templates_dir": "t"}}, "'hyde.templates_dir'"),  # set by paths.hyde_templates_dir
    ({"gateway": {"parallelism": 4}}, "'gateway.parallelism'"),  # pipeline.llm_max_workers sets it
    ({"encoder": {"dim": 64}}, "'encoder.dim'"),  # the bundle's manifest sets it
    ({"paths": {"embeddings_vectors": "v.f32"}}, "'paths.embeddings_vectors'"),  # and the vectors file
])
def test_unknown_key_rejected_at_load(data, cfg, key, capsys):
    path = _config_file(data, {"paths": _paths(data), **cfg})
    with pytest.raises(ConfigError, match=f"unknown config key {key}"):
        load_run_config(path)
    argv = ["search", "--config", path, "--method", "bm25", "--out", str(data / "run.trec")]
    assert run_command(argv) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("cfg, message", [
    ([1, 2], "must be a JSON object, got list"),
    ({"pipeline": 5}, "section 'pipeline' must be a JSON object, got int"),
    ({"paths": None}, "section 'paths' must be a JSON object, got NoneType"),
])
def test_non_object_rejected(tmp_path, cfg, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_run_config(_config_file(tmp_path, cfg))


def test_invalid_json_and_missing_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"pipeline": ')
    with pytest.raises(ConfigError, match="invalid config JSON"):
        load_run_config(str(bad))
    with pytest.raises(ConfigError, match="config file not found"):
        load_run_config(str(tmp_path / "absent.json"))


def test_non_utf8_config_exits_2(data, capsys):
    config = data / "utf16.json"
    config.write_text(json.dumps({"paths": _paths(data)}), encoding="utf-16")
    with pytest.raises(ConfigError, match="invalid config JSON"):
        load_run_config(str(config))
    assert run_command(["search", "--config", str(config), "--method", "bm25",
                        "--out", str(data / "run.trec")]) == 2
    assert capsys.readouterr().err.startswith("error: invalid config JSON")


@pytest.mark.parametrize("cfg, method", [
    ({"fusion": {"alpha": 2}}, "hybrid"),
    ({"pipeline": 5}, "hybrid"),
    ([1, 2], "hybrid"),
    ({"encoder": {"dim": 0}}, "hybrid"),
    ({"encoder": {"dim": "64"}}, "hybrid"),
    ({"pipeline": {"k_initial": 0}}, "hybrid"),
    ({"hyde": {"n_samples": 0}}, "hybrid"),
    ({"gateway": {"backend": "mock", "mock_script": "absent.json"}}, "hyde"),
])
def test_bad_value_exits_2_without_traceback(data, cfg, method, capsys):
    if isinstance(cfg, dict):
        cfg = {"paths": _paths(data), **cfg}
    argv = ["search", "--config", _config_file(data, cfg), "--method", method,
            "--out", str(data / "run.trec")]
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


_HTTP_GATEWAY = {"backend": "http", "url": "http://127.0.0.1:9"}  # built, never called


@pytest.mark.parametrize("sections, method, message", [
    ({"judge": {"top_logprobs": 0}}, "rede", "top_logprobs must be >= 1"),
    ({"judge": {"max_doc_tokens": -1}}, "rerank", "max_doc_tokens must be >= 0"),
    ({"hyde": {"max_new_tokens": 0}}, "hyde", "max_new_tokens must be >= 1"),
    ({"hyde": {"temperature": -0.5}}, "hyde", "temperature must be a finite number >= 0, got -0.5"),
    ({"hyde": {"max_context_doc_tokens": -1}}, "hyde-prf", "max_context_doc_tokens must be >= 0"),
    ({"pipeline": {"llm_max_workers": 0}}, "rede", "llm_max_workers must be >= 1"),
    ({"hyde": {"temperature": float("nan")}}, "hyde", "temperature must be a finite number >= 0, got nan"),
])
def test_bad_llm_parameter_rejected_at_build(data, sections, method, message, capsys):
    path = _config_file(data, {"paths": _paths(data), "gateway": _HTTP_GATEWAY, **sections})
    with pytest.raises(ConfigError, match=re.escape(message)):
        build_engine(load_run_config(path), method)
    argv = ["search", "--config", path, "--method", method, "--out", str(data / "run.trec")]
    assert run_command(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("sections, method, message", [
    ({"gateway": {"backend": "http"}}, "hyde",
     f"gateway.backend 'http' needs gateway.url (or {GATEWAY_URL_ENV})"),
    ({"gateway": {"backend": "mock"}}, "hyde", "gateway.backend 'mock' needs gateway.mock_script"),
    ({"encoder": {"backend": "http"}}, "dense", "encoder.backend 'http' needs encoder.url"),
    ({"judge": {"backend": "oracle"}}, "rede", "judge.backend 'oracle' needs paths.qrels"),
    ({"judge": {"backend": "exact"}}, "rede", "unknown judge.backend 'exact'"),
    ({"encoder": {"backend": "exact"}}, "dense", "unknown encoder.backend 'exact'"),
])
def test_missing_backend_setting_is_named(data, sections, method, message):
    paths = {k: v for k, v in _paths(data).items() if k != "qrels"}
    path = _config_file(data, {"paths": paths, **sections})
    with pytest.raises(ConfigError, match=re.escape(message)):
        build_engine(load_run_config(path), method)


def test_encoder_is_built_only_with_a_bundle(data):
    paths = {k: v for k, v in _paths(data).items() if k != "embeddings_manifest"}
    cfg = {"paths": paths, "encoder": {"backend": "http"}}  # no url, but nothing builds it
    assert build_engine(load_run_config(_config_file(data, cfg)), "bm25").encoder is None
    cfg["encoder"]["backend"] = "exact"
    with pytest.raises(ConfigError, match="unknown encoder.backend 'exact'"):
        build_engine(load_run_config(_config_file(data, cfg)), "bm25")


def test_paths_only_config_takes_class_defaults(data):
    engine = _build(data, {}, "bm25")
    assert engine.config == PipelineConfig()
    assert engine.fusion_config == FusionConfig()
    assert engine.hyde_config == HydeConfig()
    assert isinstance(engine.encoder, HashingEncoder) and engine.encoder.dim == 64
    assert engine.judge is None and engine.gateway is None


def test_backend_defaults_come_from_the_constructor(data, http_server):
    url, state = http_server
    engine = _build(data, {"gateway": {"backend": "http", "url": "http://127.0.0.1:9"},
                           "encoder": {"backend": "http", "url": url}}, "hyde")
    gateway = engine.gateway
    assert isinstance(gateway, HttpGateway)
    assert (gateway.model, gateway.backoff_s) == ("completion-model", 0.25)
    assert isinstance(engine.encoder, HttpEncoder) and engine.encoder.timeout == 30.0
    state["handler"] = lambda body: (200, {"vectors": [[0.5] * 32]})  # the bundle's dim is 64
    with pytest.raises(DimMismatch, match=re.escape("expected (1, 64)")):
        engine.search("dense", Query("q1", "apple fruit"))
    mock = _build(data, {"gateway": {"backend": "mock", "mock_script": str(data / "mock.json"),
                                     "url": "ignored by the mock backend", "retries": 5}}, "hyde").gateway
    assert isinstance(mock, MockGateway) and (mock.retries, mock.backoff_s) == (0, 0.0)  # never retries


def test_set_keys_reach_the_classes(data):
    engine = _build(data, {
        "pipeline": {"k_initial": 3, "max_kstar": 2, "llm_max_workers": 2},
        "fusion": {"alpha": 0.25},
        "hyde": {"n_samples": 2},
        "judge": {"backend": "llm", "template_id": "rg_yn", "max_doc_tokens": 7},
        "gateway": {**_HTTP_GATEWAY, "retries": 5},
    })
    assert (engine.config.k_initial, engine.config.max_kstar, engine.config.llm_max_workers) == (3, 2, 2)
    assert engine.fusion_config.alpha == 0.25 and engine.hyde_config.n_samples == 2
    assert (engine.judge.template_id, engine.judge.positive_token, engine.judge.max_doc_tokens) == (
        "rg_yn", "Yes", 7)
    assert engine.judge.gateway is engine.gateway and engine.gateway.retries == 5


def test_readme_run_config_builds(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"### Run config\n.*?```json\n(.*?)```", readme, re.S).group(1)
    example = json.loads(block)
    monkeypatch.delenv(GATEWAY_URL_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    _write_data(tmp_path)  # at the relative paths the example names
    path = _config_file(tmp_path, example)
    for method in ("rede", "hyde-prf"):
        engine = build_engine(load_run_config(path), method)
        assert isinstance(engine.gateway, HttpGateway)
        assert engine.gateway.url == example["gateway"]["url"]
    assert engine.config == PipelineConfig(**example["pipeline"])


def _keys_whose_default_is(kind: type) -> list[tuple[str, str | None, str]]:
    """(section, backend, key) of every key whose class default is of exactly this type.

    Read from the classes, so a parameter added later is in the list.
    """
    keys = [(section, None, f.name)
            for section, cls in (("pipeline", PipelineConfig), ("fusion", FusionConfig),
                                 ("hyde", HydeConfig))
            for f in fields(cls) if type(f.default) is kind]
    for section, backends in _BACKENDS.items():
        for name, backend in backends.items():
            params = inspect.signature(MockGateway.__init__ if name == "mock" else backend.build).parameters
            keys += [(section, name, key) for key in backend.keys
                     if key in params and type(params[key].default) is kind]
    return keys


def _count_keys() -> list[tuple[str, str | None, str]]:
    """Every count key: its default is an int that is not a bool; the two whose default is None
    are named by hand."""
    return _keys_whose_default_is(int) + [("pipeline", None, "max_kstar"), ("fusion", None, "pool_depth")]


def _real_keys() -> list[tuple[str, str | None, str]]:
    """Every real-valued key: its default is a float."""
    return _keys_whose_default_is(float)


def _text_keys() -> list[tuple[str, str]]:
    """(section, key) of every text key: its default is a str, but for the two ``PipelineConfig``
    checks against its tuples; the paths, the judge tokens whose default is None and the three
    keys with no default are named by hand."""
    checked = {("pipeline", "initial_retriever"), ("pipeline", "default_policy")}
    return [(s, k) for s, _, k in _keys_whose_default_is(str) if (s, k) not in checked] + [
        *(("paths", key) for key in _PATHS), ("judge", "positive_token"), ("judge", "negative_token"),
        ("gateway", "mock_script"), ("gateway", "url"), ("encoder", "url")]


_BACKEND_SETTINGS = {"http": {"url": "http://127.0.0.1:9"}, "mock": {"mock_script": "mock.json"}}


def _sections_setting(section: str, backend: str | None, values: dict) -> dict:
    """``values`` in ``section``, with ``backend`` and the setting it needs, and an HTTP gateway.

    ``rede`` with the default llm judge builds every component from these; the mock script is
    named relative to the data directory.
    """
    if backend is not None:
        values = {"backend": backend, **_BACKEND_SETTINGS.get(backend, {}), **values}
    return {"gateway": _HTTP_GATEWAY, section: values}


def _assert_exits_2(root: Path, capsys, sections: dict, method: str, message: str) -> None:
    """build_engine raises ConfigError with message; `rede search` prints it and exits 2."""
    path = _config_file(root, {"paths": _paths(root), **sections})
    with pytest.raises(ConfigError, match=re.escape(message)):
        build_engine(load_run_config(path), method)
    assert run_command(["search", "--config", path, "--method", method,
                        "--out", str(root / "run.trec")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_count_keys_are_read_from_the_classes():
    assert {f"{s}.{k}" for s, _, k in _count_keys()} >= {
        "pipeline.k_initial", "hyde.n_samples", "judge.top_logprobs", "gateway.retries"}


@pytest.mark.parametrize("section, backend, key, value", [
    *[(s, b, k, v) for s, b, k in _count_keys() for v in (1.5, True)],
    ("judge", "llm", "top_logprobs", 64.0),
], ids=lambda x: x if isinstance(x, str) else None)
def test_count_key_that_is_not_an_integer_exits_2(data, monkeypatch, capsys, section, backend, key,
                                                 value):
    monkeypatch.chdir(data)
    _assert_exits_2(data, capsys, _sections_setting(section, backend, {key: value}), "rede",
                    f"{key} must be an integer, got {value}")


def test_real_keys_are_read_from_the_classes():
    assert set(_real_keys()) >= {
        ("fusion", None, "alpha"), ("hyde", None, "temperature"), ("judge", "lexical", "threshold"),
        ("gateway", "http", "timeout"), ("gateway", "http", "backoff_s"),
        ("gateway", "mock", "logprob_delay_s"), ("gateway", "mock", "text_delay_s")}


@pytest.mark.parametrize("value", ["x", math.nan, -1, math.inf, True], ids=repr)
@pytest.mark.parametrize("section, backend, key", _real_keys(), ids=lambda x: x if isinstance(x, str) else None)
def test_real_key_that_is_not_a_finite_number_in_range_exits_2(data, monkeypatch, capsys, section, backend,
                                                                key, value):
    monkeypatch.chdir(data)
    _assert_exits_2(data, capsys, _sections_setting(section, backend, {key: value}), "rede",
                    f"{key} must be a finite number")


@pytest.mark.parametrize("value", [1e300, 10**400], ids=["1e300", "10**400"])
@pytest.mark.parametrize("section, backend, key", [k for k in _real_keys() if k[0] == "gateway"],
                         ids=lambda x: x if isinstance(x, str) else None)
def test_seconds_key_past_a_day_exits_2(data, monkeypatch, capsys, section, backend, key, value):
    # every real gateway key is a time in seconds; past a day, time.sleep would overflow
    monkeypatch.chdir(data)
    bound = "(0, 86400]" if key == "timeout" else "[0, 86400]"
    _assert_exits_2(data, capsys, _sections_setting(section, backend, {key: value}), "rede",
                    f"{key} must be a finite number in {bound}, got {value!r}")


@pytest.mark.parametrize("sections, message", [
    ({"gateway": {**_HTTP_GATEWAY, "retries": -1}}, "retries must be >= 0, got -1"),
    (_sections_setting("judge", "llm", {"template_id": "rg_yn", "negative_token": "Yes"}),
     "positive_token and negative_token are both 'Yes'"),
    ({"gateway": {"backend": ["x"]}}, "unknown gateway.backend ['x']"),
    ({"gateway": _HTTP_GATEWAY, "judge": {"backend": {"llm": 1}}}, "unknown judge.backend"),
    ({"judge": {"backend": "lexical", "threshold": "x"}}, "bad judge config"),
    ({"judge": {"backend": "lexical", "threshold": float("nan")}},
     "threshold must be a finite number in [0, 1], got nan"),
    ({"judge": {"backend": "lexical", "threshold": -0.5}}, "threshold must be a finite number in [0, 1], got -0.5"),
    (_sections_setting("gateway", "mock", {"logprob_delay_s": "x"}), "bad gateway config"),
    (_sections_setting("gateway", "mock", {"text_delay_s": -1}),
     "text_delay_s must be a finite number in [0, 86400], got -1"),
    (_sections_setting("gateway", "mock", {"text_delay_s": float("inf")}),
     "text_delay_s must be a finite number in [0, 86400], got inf"),
    (_sections_setting("gateway", "mock", {"logprob_delay_s": float("inf")}),
     "logprob_delay_s must be a finite number in [0, 86400], got inf"),
    ({"gateway": {**_HTTP_GATEWAY, "backoff_s": "x"}}, "backoff_s must be a finite number in [0, 86400], got 'x'"),
    ({"gateway": {**_HTTP_GATEWAY, "timeout": 0}}, "timeout must be a finite number in (0, 86400], got 0"),
])
def test_wrongly_typed_or_negative_value_exits_2(data, monkeypatch, capsys, sections, message):
    monkeypatch.chdir(data)
    _assert_exits_2(data, capsys, sections, "rede", message)


def test_text_keys_are_read_from_the_classes():
    # a string parameter added later is a text key, so it fails here until the loader checks it
    assert {f"{s}.{k}" for s, k in _text_keys()} == _TEXT_KEYS


@pytest.mark.parametrize("section, key", _text_keys())
def test_path_that_is_not_a_string_exits_2(data, monkeypatch, capsys, section, key):
    # an integer path would reach open() as a file descriptor, and an integer judge token never
    # matches the string keys of the returned logprobs
    monkeypatch.chdir(data)
    cfg = {"paths": _paths(data), "gateway": {"backend": "mock", "mock_script": "mock.json"}}
    cfg[section] = {**cfg.get(section, {}), key: 5}
    path = _config_file(data, cfg)
    message = f"{section}.{key} must be a string or null, got 5"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_run_config(path)
    assert run_command(["search", "--config", path, "--method", "hyde", "--out", str(data / "run.trec")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("script", [
    {"match_substring": "", "text": "fruit"},  # an object, not a list of them
    [1],
    [{"match_substring": 5, "text": "fruit"}],
], ids=["object", "non-object entry", "non-string match_substring"])
def test_malformed_mock_script_exits_2(data, monkeypatch, capsys, script):
    monkeypatch.chdir(data)
    (data / "mock.json").write_text(json.dumps(script))
    _assert_exits_2(data, capsys, _sections_setting("gateway", "mock", {}), "hyde",
                    "mock script must be a list of objects whose match_substring is a string")


@pytest.mark.parametrize("value, message", [
    (2.5, "n must be an integer, got 2.5"), (64.0, "n must be an integer, got 64.0"),
    ("3", "n must be an integer, got '3'"), (None, "n must be an integer, got None"),
    (0, "n must be >= 1, got 0"), (np.int64(-1), "n must be >= 1, got -1"),
    (True, "n must be an integer, got True"),
])
def test_check_count_takes_integers_at_or_above_the_bound(value, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        check_count("n", value, 1, ConfigError)
    for good in (1, np.int32(7), 10**20):
        check_count("n", good, 1)


@pytest.mark.parametrize("value, hi, positive, message", [
    ("0.5", 1, False, "x must be a finite number in [0, 1], got '0.5'"),
    (None, math.inf, False, "x must be a finite number >= 0, got None"),
    (math.nan, 1, False, "x must be a finite number in [0, 1], got nan"),
    (math.inf, math.inf, False, "x must be a finite number >= 0, got inf"),
    (-math.inf, math.inf, False, "x must be a finite number >= 0, got -inf"),
    (-0.5, 1, False, "x must be a finite number in [0, 1], got -0.5"),
    (1.5, 1, False, "x must be a finite number in [0, 1], got 1.5"),
    (0, math.inf, True, "x must be a finite number > 0, got 0"),
    (0.0, 1, True, "x must be a finite number in (0, 1], got 0.0"),
    (np.float32(-1), math.inf, False, "x must be a finite number >= 0, got np.float32(-1.0)"),
    (True, 1, False, "x must be a finite number in [0, 1], got True"),
])
def test_check_real_takes_finite_numbers_in_the_interval(value, hi, positive, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        check_real("x", value, hi, positive=positive)
    for good in (0, 1, 0.5, np.float32(0.25), np.int64(1)):  # both closed bounds pass
        check_real("x", good, 1)
    check_real("x", 1e-300, positive=True)
    check_real("x", 1, 1, positive=True)
