"""Run configuration: one JSON file and engine assembly.

The file is a JSON object of sections; every key is optional unless a
subcommand needs it. A section holds the parameters of the class it
builds, and a key the file does not set keeps that class's default:

  * ``pipeline`` -> ``PipelineConfig``, ``fusion`` -> ``FusionConfig``,
    ``hyde`` -> ``HydeConfig`` (all fields but ``templates_dir``);
    ``pipeline.llm_max_workers`` alone sets how many judge calls or HyDE
    samples of one query are in flight;
  * ``judge``, ``gateway`` and ``encoder`` pick a class by ``backend``
    (first listed is the default) and take that class's keys from
    ``_BACKENDS``: judge ``llm`` -> ``LlmJudge``, ``oracle`` ->
    ``OracleJudge``, ``lexical`` -> ``LexicalJudge``; gateway ``http`` ->
    ``HttpGateway``, ``mock`` -> ``MockGateway.from_script_file``; encoder
    ``hash`` -> ``HashingEncoder``, ``http`` -> ``HttpEncoder``. The
    encoder is built only when an embedding bundle is given, the ``hash``
    one at the bundle's dim; the ``http`` one takes no dim, and the engine
    reads its reply against the bundle's. The bundle's manifest is the one
    home of the dense dim and of its vectors file;
  * ``paths`` holds the deployment's files, listed with defaults in
    ``_PATHS`` (None: not given; ``sparse_index`` None builds the index
    from the corpus, a templates dir None uses the templates in the package).
    A text key is a string or null: a path, there or in ``gateway.mock_script``,
    a URL (``gateway.url``, ``encoder.url``), ``gateway.model``, the judge's
    ``template_id``, ``positive_token`` and ``negative_token``, and
    ``hyde.task_template``.

Unknown keys are rejected at load time in every section. REDE_GATEWAY_URL
in the environment overrides gateway.url; the CLI's ``--queries`` replaces
paths.queries in the loaded dict.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields
from typing import Callable, NamedTuple

from .corpus import load_corpus, load_qrels
from .dense import HashingEncoder, HttpEncoder, load_bundle
from .errors import ConfigError
from .fusion import FusionConfig
from .gateway import HttpGateway, MockGateway
from .hyde import HydeConfig
from .judge import LexicalJudge, LlmJudge, OracleJudge
from .pipeline import PipelineConfig, SearchEngine, required_components
from .sparse import build_sparse_index, load_sparse_index

GATEWAY_URL_ENV = "REDE_GATEWAY_URL"

_PATHS = {
    "corpus": None, "queries": None, "qrels": None, "embeddings_manifest": None,
    "sparse_index": None, "judge_templates_dir": None, "hyde_templates_dir": None,
}


class _Backend(NamedTuple):
    build: Callable
    keys: tuple[str, ...] = ()  # section keys it takes
    takes: tuple[str, ...] = ()  # values assembly supplies: gateway, qrels, templates_dir, dim
    needs: tuple[str, str] | None = None  # (argument it cannot do without, where it is set)


_BACKENDS = {
    "judge": {
        "llm": _Backend(LlmJudge, ("template_id", "positive_token", "negative_token",
                                   "max_doc_tokens", "top_logprobs"),
                        takes=("gateway", "templates_dir")),
        "oracle": _Backend(OracleJudge, takes=("qrels",), needs=("qrels", "paths.qrels")),
        "lexical": _Backend(LexicalJudge, ("threshold",)),
    },
    "gateway": {
        "http": _Backend(HttpGateway, ("url", "model", "timeout", "retries", "backoff_s"),
                         needs=("url", f"gateway.url (or {GATEWAY_URL_ENV})")),
        "mock": _Backend(MockGateway.from_script_file,
                         ("mock_script", "logprob_delay_s", "text_delay_s"),
                         needs=("mock_script", "gateway.mock_script")),
    },
    "encoder": {
        "hash": _Backend(HashingEncoder, takes=("dim",)),
        "http": _Backend(HttpEncoder, ("url",), needs=("url", "encoder.url")),
    },
}

# every key a run-config file may set, by section
SECTION_KEYS: dict[str, frozenset[str]] = {
    "paths": frozenset(_PATHS),
    "pipeline": frozenset(f.name for f in fields(PipelineConfig)),
    "fusion": frozenset(f.name for f in fields(FusionConfig)),
    "hyde": frozenset(f.name for f in fields(HydeConfig)) - {"templates_dir"},
    **{section: frozenset({"backend"}).union(*(b.keys for b in backends.values()))
       for section, backends in _BACKENDS.items()},
}

_TEXT_KEYS = frozenset({*(f"paths.{key}" for key in _PATHS), "gateway.mock_script", "gateway.url",
                        "gateway.model", "encoder.url", "judge.template_id", "judge.positive_token",
                        "judge.negative_token", "hyde.task_template"})


def _layer(cfg: dict, layer, source: str) -> None:
    if not isinstance(layer, dict):
        raise ConfigError(f"{source} must be a JSON object, got {type(layer).__name__}")
    for section, values in layer.items():
        if section not in SECTION_KEYS:
            raise ConfigError(f"unknown config key {section!r}")
        if not isinstance(values, dict):
            raise ConfigError(f"config section {section!r} must be a JSON object, "
                              f"got {type(values).__name__}")
        for key, value in values.items():
            name = f"{section}.{key}"
            if key not in SECTION_KEYS[section]:
                raise ConfigError(f"unknown config key {name!r}")
            # open(5) reads fd 5, and a judge token 1 never matches the logprob key "1"
            if name in _TEXT_KEYS and value is not None and not isinstance(value, str):
                raise ConfigError(f"{name} must be a string or null, got {value!r}")
        cfg[section].update(values)


def load_run_config(path: str | None) -> dict:
    """The keys set by the config file (none if path is None); paths filled with defaults."""
    cfg: dict = {section: {} for section in SECTION_KEYS}
    cfg["paths"].update(_PATHS)
    if path is not None:
        if not os.path.isfile(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as f:
            try:
                file_cfg = json.load(f)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"invalid config JSON in {path}: {exc}") from exc
        _layer(cfg, file_cfg, f"config file {path}")
    url = os.environ.get(GATEWAY_URL_ENV)
    if url:
        cfg["gateway"]["url"] = url
    return cfg


def _require_path(cfg: dict, key: str) -> str:
    path = cfg["paths"].get(key)
    if not path:
        raise ConfigError(f"config needs paths.{key}")
    if not os.path.exists(path):
        raise ConfigError(f"paths.{key} does not exist: {path}")
    return path


def _construct(section: str, build: Callable, **kwargs):
    """build(**kwargs); a value it rejects (or a file it cannot read) is a ConfigError."""
    try:
        return build(**kwargs)
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"bad {section} config: {exc}") from exc


def _backend(cfg: dict, section: str) -> tuple[str, _Backend]:
    backends = _BACKENDS[section]
    name = cfg[section].get("backend", next(iter(backends)))
    if not isinstance(name, str) or name not in backends:  # a list or an object is unhashable
        raise ConfigError(f"unknown {section}.backend {name!r}; expected one of {tuple(backends)}")
    return name, backends[name]


def _build(cfg: dict, section: str, **supplied):
    """Build the section's backend from the keys the file set and what assembly supplies."""
    name, backend = _backend(cfg, section)
    values = cfg[section]
    kwargs = {key: values[key] for key in backend.keys if key in values}
    kwargs.update((key, supplied[key]) for key in backend.takes)
    if backend.needs is not None and not kwargs.get(backend.needs[0]):
        raise ConfigError(f"{section}.backend {name!r} needs {backend.needs[1]}")
    return _construct(section, backend.build, **kwargs)


def build_engine(cfg: dict, method: str = "rede") -> SearchEngine:
    """Load data and assemble a SearchEngine with what the given method needs."""
    paths = cfg["paths"]
    pipeline_cfg = _construct("pipeline", PipelineConfig, **cfg["pipeline"])
    fusion_cfg = _construct("fusion", FusionConfig, **cfg["fusion"])
    hyde_cfg = _construct("hyde", HydeConfig, **cfg["hyde"], templates_dir=paths["hyde_templates_dir"])
    corpus = load_corpus(_require_path(cfg, "corpus"))

    if paths["sparse_index"]:
        sparse_index = load_sparse_index(_require_path(cfg, "sparse_index"))
    else:
        sparse_index = build_sparse_index(corpus)

    dense_index = encoder = None
    if paths["embeddings_manifest"]:
        dense_index = load_bundle(_require_path(cfg, "embeddings_manifest"))
        encoder = _build(cfg, "encoder", dim=dense_index.dim)
    else:
        _backend(cfg, "encoder")  # an unknown backend is refused with no bundle too

    qrels = load_qrels(_require_path(cfg, "qrels")) if paths["qrels"] else None
    needs = required_components(method, pipeline_cfg.initial_retriever, pipeline_cfg.default_policy)
    judge_takes = _backend(cfg, "judge")[1].takes if "judge" in needs else ()
    gateway = _build(cfg, "gateway") if "gateway" in needs or "gateway" in judge_takes else None
    judge = None
    if "judge" in needs:
        judge = _build(cfg, "judge", gateway=gateway, qrels=qrels,
                       templates_dir=paths["judge_templates_dir"])
    return SearchEngine(
        corpus,
        sparse_index,
        dense_index,
        encoder,
        judge=judge,
        gateway=gateway,
        config=pipeline_cfg,
        fusion_config=fusion_cfg,
        hyde_config=hyde_cfg,
    )
