"""Run configuration: one JSON file, flag overrides, and engine assembly.

The schema (all keys optional unless a subcommand needs them):

    {
      "paths": {
        "corpus": "corpus.jsonl",          "corpus_format": "jsonl",
        "queries": "queries.tsv",          "queries_format": "tsv",
        "qrels": "qrels.txt",
        "embeddings_manifest": "emb/embeddings.manifest.json",
        "embeddings_vectors": null,          // default: manifest's vectors_file
        "sparse_index": null,                // default: build from corpus
        "judge_templates_dir": null,         // default: templates shipped in-package
        "hyde_templates_dir": null
      },
      "pipeline": {"initial_retriever": "hybrid", "k_initial": 20, "max_kstar": null,
                   "default_policy": "encoder_only", "output_depth": 1000,
                   "llm_max_workers": 1},
      "fusion":   {"alpha": 0.5, "pool_depth": null},
      "hyde":     {"n_samples": 8, "temperature": 0.7, "max_new_tokens": 512,
                   "task_template": "web_search", "context_docs": 0,
                   "max_context_doc_tokens": 128},
      "judge":    {"backend": "llm",          // llm | oracle | lexical
                   "template_id": "default", "positive_token": null,
                   "negative_token": null, "threshold": 0.15,
                   "max_doc_tokens": 128, "top_logprobs": 10},
      "gateway":  {"backend": "http",          // http | mock
                   "url": null, "model": "completion-model", "timeout": 60.0,
                   "retries": 3, "backoff_s": 0.25, "parallelism": 1,
                   "mock_script": null, "logprob_delay_s": 0.0, "text_delay_s": 0.0},
      "encoder":  {"backend": "hash",          // hash | http
                   "dim": 64, "url": null}
    }

REDE_GATEWAY_URL in the environment overrides gateway.url.
"""

from __future__ import annotations

import copy
import json
import os

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

_DEFAULTS: dict = {
    "paths": {
        "corpus": None,
        "corpus_format": "jsonl",
        "queries": None,
        "queries_format": "tsv",
        "qrels": None,
        "embeddings_manifest": None,
        "embeddings_vectors": None,
        "sparse_index": None,
        "judge_templates_dir": None,
        "hyde_templates_dir": None,
    },
    "pipeline": {
        "initial_retriever": "hybrid",
        "k_initial": 20,
        "max_kstar": None,
        "default_policy": "encoder_only",
        "output_depth": 1000,
        "llm_max_workers": 1,
    },
    "fusion": {"alpha": 0.5, "pool_depth": None},
    "hyde": {
        "n_samples": 8,
        "temperature": 0.7,
        "max_new_tokens": 512,
        "task_template": "web_search",
        "context_docs": 0,
        "max_context_doc_tokens": 128,
    },
    "judge": {
        "backend": "llm",
        "template_id": "default",
        "positive_token": None,
        "negative_token": None,
        "threshold": 0.15,
        "max_doc_tokens": 128,
        "top_logprobs": 10,
    },
    "gateway": {
        "backend": "http",
        "url": None,
        "model": "completion-model",
        "timeout": 60.0,
        "retries": 3,
        "backoff_s": 0.25,
        "parallelism": 1,
        "mock_script": None,
        "logprob_delay_s": 0.0,
        "text_delay_s": 0.0,
    },
    "encoder": {"backend": "hash", "dim": 64, "url": None},
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in out:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(out[key], dict) and isinstance(value, dict):
            out[key] = _merge(out[key], value, f"{path}{key}.")
        else:
            out[key] = value
    return out


def load_run_config(path: str | None, overrides: dict | None = None) -> dict:
    """Layer defaults <- config file <- explicit overrides."""
    cfg = copy.deepcopy(_DEFAULTS)
    if path is not None:
        if not os.path.isfile(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as f:
            try:
                file_cfg = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid config JSON in {path}: {exc}") from exc
        cfg = _merge(cfg, file_cfg)
    if overrides:
        cfg = _merge(cfg, overrides)
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


def build_gateway(cfg: dict):
    g = cfg["gateway"]
    if g["backend"] == "mock":
        if not g["mock_script"]:
            raise ConfigError("gateway.backend 'mock' needs gateway.mock_script")
        if not os.path.isfile(g["mock_script"]):
            raise ConfigError(f"gateway.mock_script does not exist: {g['mock_script']}")
        return MockGateway.from_script_file(
            g["mock_script"],
            logprob_delay_s=g["logprob_delay_s"],
            text_delay_s=g["text_delay_s"],
            retries=g["retries"],
            backoff_s=g["backoff_s"],
            parallelism=g["parallelism"],
        )
    if g["backend"] == "http":
        if not g["url"]:
            raise ConfigError(f"gateway.backend 'http' needs gateway.url (or {GATEWAY_URL_ENV})")
        return HttpGateway(
            g["url"], g["model"], timeout=g["timeout"], retries=g["retries"],
            backoff_s=g["backoff_s"], parallelism=g["parallelism"],
        )
    raise ConfigError(f"unknown gateway.backend {g['backend']!r}")


def build_encoder(cfg: dict):
    e = cfg["encoder"]
    if e["backend"] == "hash":
        return HashingEncoder(dim=e["dim"])
    if e["backend"] == "http":
        if not e["url"]:
            raise ConfigError("encoder.backend 'http' needs encoder.url")
        return HttpEncoder(e["url"], dim=e.get("dim"))
    raise ConfigError(f"unknown encoder.backend {e['backend']!r}")


def build_judge(cfg: dict, gateway, qrels):
    j = cfg["judge"]
    if j["backend"] == "oracle":
        if qrels is None:
            raise ConfigError("judge.backend 'oracle' needs paths.qrels")
        return OracleJudge(qrels)
    if j["backend"] == "lexical":
        return LexicalJudge(threshold=j["threshold"])
    if j["backend"] == "llm":
        if gateway is None:
            raise ConfigError("judge.backend 'llm' needs a gateway")
        return LlmJudge(
            gateway,
            template_id=j["template_id"],
            positive_token=j["positive_token"],
            negative_token=j["negative_token"],
            max_doc_tokens=j["max_doc_tokens"],
            top_logprobs=j["top_logprobs"],
            templates_dir=cfg["paths"]["judge_templates_dir"],
        )
    raise ConfigError(f"unknown judge.backend {j['backend']!r}")


def _components(cfg: dict, method: str) -> list[str]:
    """What the method needs; ``judge`` (the judge subcommand) needs only a judge."""
    if method == "judge":
        return ["judge"]
    p = cfg["pipeline"]
    return required_components(method, p["initial_retriever"], p["default_policy"])


def needs_gateway(cfg: dict, method: str) -> bool:
    needs = _components(cfg, method)
    return "gateway" in needs or ("judge" in needs and cfg["judge"]["backend"] == "llm")


def build_engine(cfg: dict, method: str = "rede") -> SearchEngine:
    """Load data and assemble a SearchEngine for the given method."""
    pipeline_cfg = PipelineConfig(**cfg["pipeline"])  # validated before anything reads it
    corpus = load_corpus(_require_path(cfg, "corpus"), cfg["paths"]["corpus_format"])

    sparse_index = None
    if cfg["paths"]["sparse_index"]:
        sparse_index = load_sparse_index(_require_path(cfg, "sparse_index"))
    elif corpus:
        sparse_index = build_sparse_index(corpus)

    dense_index = None
    if cfg["paths"]["embeddings_manifest"]:
        dense_index = load_bundle(
            _require_path(cfg, "embeddings_manifest"), cfg["paths"]["embeddings_vectors"]
        )

    qrels = load_qrels(_require_path(cfg, "qrels")) if cfg["paths"]["qrels"] else None
    gateway = build_gateway(cfg) if needs_gateway(cfg, method) else None
    judge = build_judge(cfg, gateway, qrels) if "judge" in _components(cfg, method) else None

    fusion_cfg = FusionConfig(**cfg["fusion"])
    hyde_cfg = HydeConfig(**cfg["hyde"], templates_dir=cfg["paths"]["hyde_templates_dir"])
    return SearchEngine(
        corpus,
        sparse_index,
        dense_index,
        build_encoder(cfg),
        judge=judge,
        gateway=gateway,
        config=pipeline_cfg,
        fusion_config=fusion_cfg,
        hyde_config=hyde_cfg,
    )
