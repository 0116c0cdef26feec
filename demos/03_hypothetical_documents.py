"""
Hypothetical-document search with a scripted mock gateway
=========================================================

The generation-based baselines sample N hypothetical documents from a
completion backend, encode them, and average them with the query vector.
A deterministic mock gateway stands in for the model so the arithmetic
is fully visible. The context variant prepends the top retrieved
documents to the prompt.
"""

import numpy as np

from rede import (
    Document,
    HashingEncoder,
    HydeConfig,
    MockGateway,
    PipelineConfig,
    Query,
    SearchEngine,
    build_dense_index,
    build_sparse_index,
    generate_hypothetical_docs,
    mean_update,
    render_hyde_prompt,
)

print("zero-context prompt:")
print(render_hyde_prompt("web_search", "how do glaciers form"))
print("context prompt (one retrieved doc):")
print(render_hyde_prompt("web_search", "how do glaciers form",
                         ["Glaciers are persistent bodies of dense ice."]))

texts = {
    "d1": "glaciers form from accumulated compacted snow",
    "d2": "ice sheets cover greenland and antarctica",
    "d3": "river deltas deposit sediment at the coast",
    "d4": "snowfall exceeds melt in accumulation zones",
}
corpus = {d: Document(d, "", t) for d, t in texts.items()}
encoder = HashingEncoder(dim=32)
ids = sorted(corpus)
dense = build_dense_index(ids, encoder.encode([texts[d] for d in ids]))

hypo_text = "glaciers form when snow compacts into ice over many years"
gateway = MockGateway([{"match_substring": "", "text": hypo_text}])

config = HydeConfig(n_samples=8, temperature=0.7, max_new_tokens=512)
docs = generate_hypothetical_docs(gateway, config, Query("q1", "how do glaciers form"))
print(f"sampled {len(docs)} hypothetical documents, {gateway.counter.text_calls} gateway calls")

# refined query = mean of the query vector and the 8 hypothetical vectors
qvec = encoder.encode(["how do glaciers form"])[0]
refined = mean_update(qvec, list(encoder.encode(docs)))
print("refined == (f(q) + 8 f(t)) / 9:",
      np.allclose(refined, (qvec + 8 * encoder.encode([hypo_text])[0]) / 9, atol=1e-6))

engine = SearchEngine(corpus, build_sparse_index(corpus), dense, encoder, gateway=gateway,
                      config=PipelineConfig(initial_retriever="hybrid", k_initial=4,
                                            output_depth=4),
                      hyde_config=config)
run, _ = engine.search("hyde", Query("q1", "how do glaciers form"))
print("ranking:", run.doc_ids())
