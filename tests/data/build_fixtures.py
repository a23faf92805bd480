"""Regenerates every checked-in fixture under tests/data/.

Deterministic end to end: corpus bodies are fixed strings, the embedder is
the hashing one, and retrieval is simulated here with the same parameters
the golden config uses, so scripted answers can cite the chunk ids the real
run will retrieve. The golden reports.jsonl and eval.json are frozen outputs
of one pipeline run over these fixtures; the acceptance suite re-runs the
pipeline and compares bytes.

Run from the repository root:  python tests/data/build_fixtures.py
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

DATA_DIR = Path(__file__).parent
sys.path.insert(0, str(DATA_DIR.parent.parent / "src"))

from radar.agents import (  # noqa: E402
    AgentRole,
    answer_question,
    config_for_role,
    final_diagnosis,
    generate_queries,
    initial_diagnosis,
)
from radar.chunking import Section  # noqa: E402
from radar.evaluation import DictionaryNormalizer, evaluate_run, load_synonyms, load_truths  # noqa: E402
from radar.domain import DiagnosisReport, no_evidence_answer, validate_case  # noqa: E402
from radar.knowledge import FixtureSource, KnowledgeBase  # noqa: E402
from radar.providers import ChatResponse, HashingEmbedder, embed_text, request_fingerprint  # noqa: E402
from radar.runner import load_reports, load_run_config, run_cases  # noqa: E402

CHUNK_CHARS = 1000
OVERLAP_CHARS = 200
DIM = 384

# ---------------------------------------------------------------------------
# Corpus: 2 keywords x (5 articles + 5 cases)
# ---------------------------------------------------------------------------

GBM_SENTENCES = [
    "Glioblastoma is the most aggressive diffuse glioma of adulthood and carries a dismal prognosis despite maximal therapy.",
    "On MRI the tumour classically shows a thick irregular rim of enhancement surrounding central necrosis.",
    "Marked surrounding T2 and FLAIR signal reflects a mixture of vasogenic oedema and infiltrating tumour cells.",
    "Spread across the corpus callosum produces the so-called butterfly pattern that strongly favours glioblastoma over metastasis.",
    "Elevated choline to creatine ratios and reduced N-acetylaspartate support a high-grade glial neoplasm on spectroscopy.",
    "Median survival remains under two years even with resection, radiotherapy, and temozolomide.",
    "Differential considerations include cerebral metastasis, primary CNS lymphoma, and tumefactive demyelination.",
    "Subependymal or leptomeningeal dissemination is a recognised late complication and worsens outcome further.",
]

TSC_SENTENCES = [
    "Tuberous sclerosis complex is a neurocutaneous disorder caused by mutations of the TSC1 or TSC2 genes.",
    "Characteristic cerebral findings are cortical tubers, radial migration lines, and calcified subependymal nodules.",
    "Subependymal giant cell astrocytomas arise near the foramen of Monro and may obstruct cerebrospinal fluid flow.",
    "Clinical features include epilepsy, developmental delay, facial angiofibromas, and hypomelanotic macules.",
    "Cardiac rhabdomyomas and renal angiomyolipomas frequently accompany the intracranial disease.",
    "Cortical tubers appear as expanded gyri with subcortical T2 hyperintensity and variable calcification.",
    "Serial imaging is recommended because an enlarging nodule near the foramen of Monro suggests giant cell astrocytoma.",
    "mTOR inhibitors such as everolimus can shrink subependymal giant cell astrocytomas and treat refractory seizures.",
]


def corpus_body(sentences: list[str], ordinal: int, flavour: str) -> str:
    """A distinct 1.2-2k character body per document, no randomness."""
    rotated = sentences[ordinal % len(sentences) :] + sentences[: ordinal % len(sentences)]
    repeats = 2 + (ordinal % 3)
    parts = [f"{flavour} report {ordinal}."]
    for cycle in range(repeats):
        for sentence in rotated:
            parts.append(sentence)
        parts.append(f"Observation series {ordinal}-{cycle} recorded for completeness.")
    return " ".join(parts)


def write_corpus() -> Path:
    corpus = DATA_DIR / "corpus"
    if corpus.exists():
        shutil.rmtree(corpus)
    corpus.mkdir(parents=True)
    specs = [
        ("glioblastoma", "gbm", GBM_SENTENCES),
        ("tuberous sclerosis", "tsc", TSC_SENTENCES),
    ]
    for keyword, stem, sentences in specs:
        for section in (Section.ARTICLE, Section.CASE):
            for i in range(5):
                doc_id = f"{stem}-{section.value}-{i}"
                flavour = "Review article" if section is Section.ARTICLE else "Case"
                body = corpus_body(sentences, i + (5 if section is Section.CASE else 0), flavour)
                payload = {
                    "doc_id": doc_id,
                    "keyword": keyword,
                    "section": section.value,
                    "title": f"{keyword.title()} {section.value} {i}",
                    "body": body,
                    "source_url": f"https://reference.example/{section.value}s/{doc_id}",
                }
                (corpus / f"{doc_id}.json").write_text(
                    json.dumps(payload, indent=2, ensure_ascii=False), encoding="utf-8"
                )
    return corpus


# ---------------------------------------------------------------------------
# Cases, truths, synonyms
# ---------------------------------------------------------------------------

CASES = [
    {
        "id": "c1",
        "caption": "T2/FLAIR hyperintense infiltrative mass crossing the corpus callosum "
                   "with central necrosis and thick irregular rim enhancement.",
        "clinical_data": "58-year-old with two weeks of progressive headache and left-sided weakness.",
        "truth_label": "glioblastoma",
        "paraphrase_id": 0,
    },
    {
        "id": "c2",
        "caption": "Multiple calcified subependymal nodules and cortical tubers; enhancing "
                   "nodule at the foramen of Monro.",
        "clinical_data": "9-year-old with refractory seizures and facial angiofibromas.",
        "truth_label": "tuberous sclerosis",
        "paraphrase_id": 0,
    },
    {
        "id": "c3",
        "caption": "Expansile non-enhancing T2 hyperintense lesion of the left insula in a young adult.",
        "clinical_data": "31-year-old presenting with a first generalized seizure.",
        "truth_label": "low-grade glioma",
        "paraphrase_id": 0,
    },
]

SYNONYMS = {
    "gbm": "glioblastoma",
    "diffuse astrocytoma": "low-grade glioma",
    "sega": "subependymal giant cell astrocytoma",
}

QUERIES = {
    "c1": [
        ("Which tumours show rim enhancement with central necrosis crossing the corpus callosum?", "glioblastoma"),
        ("Can tuberous sclerosis produce enhancing intraventricular nodules in adults?", "tuberous sclerosis"),
        ("How specific is the butterfly pattern for high-grade glioma?", "glioblastoma"),
        ("What spectroscopy profile supports a high-grade glial tumour?", "glioblastoma"),
        ("Do cortical tubers enhance after contrast administration?", "tuberous sclerosis"),
    ],
    "c2": [
        ("What intracranial findings are diagnostic of tuberous sclerosis complex?", "tuberous sclerosis"),
        ("Which lesions arise at the foramen of Monro in tuberous sclerosis?", "tuberous sclerosis"),
        ("How does a subependymal giant cell astrocytoma differ from a nodule?", "tuberous sclerosis"),
        ("Does glioblastoma occur in children with seizures?", "glioblastoma"),
        ("What systemic tumours accompany tuberous sclerosis?", "tuberous sclerosis"),
    ],
    "c3": [
        ("Do low-grade gliomas enhance after contrast?", "glioblastoma"),
        ("How does an insular diffuse glioma behave over time?", "glioblastoma"),
        ("Can cortical tubers mimic a low-grade glioma on T2 imaging?", "tuberous sclerosis"),
        ("What imaging favours glioblastoma over a lower-grade tumour?", "glioblastoma"),
        ("Which seizure-associated lesions stay non-enhancing?", "tuberous sclerosis"),
    ],
}

CANDIDATES = {
    "c1": ["Glioblastoma", "Cerebral metastasis", "Primary CNS lymphoma", "Tumefactive demyelination",
           "Anaplastic astrocytoma", "Cerebral abscess", "Gliosarcoma", "Radiation necrosis",
           "Oligodendroglioma", "Subacute infarction"],
    "c2": ["Tuberous sclerosis", "Subependymal giant cell astrocytoma", "Central neurocytoma",
           "Subependymoma", "TORCH calcification", "Focal cortical dysplasia", "Ependymoma",
           "Choroid plexus papilloma", "Intraventricular meningioma", "Colloid cyst"],
    "c3": ["Diffuse astrocytoma", "Oligodendroglioma", "Ganglioglioma", "DNET",
           "Herpes encephalitis", "Insular infarction", "Anaplastic astrocytoma",
           "Tumefactive demyelination", "Status epilepticus change", "Low-grade glioneuronal tumour"],
}

FINAL_REPORTS = {
    "c1": {
        "primary": "Glioblastoma",
        "differentials": ["Cerebral metastasis", "Primary CNS lymphoma",
                          "Tumefactive demyelination", "Cerebral abscess"],
        "confidences": [0.62, 0.15, 0.1, 0.08, 0.05],
    },
    "c2": {
        "primary": "Subependymal giant cell astrocytoma",
        "differentials": ["Tuberous sclerosis", "Central neurocytoma",
                          "Subependymoma", "Ependymoma"],
        "confidences": [0.48, 0.3, 0.1, 0.07, 0.05],
    },
    "c3": {
        "primary": "Diffuse astrocytoma",
        "differentials": ["Oligodendroglioma", "Ganglioglioma", "DNET", "Insular infarction"],
        "confidences": [0.45, 0.25, 0.15, 0.1, 0.05],
    },
}

DEGRADED_CASE = {
    "id": "d1",
    "caption": CASES[0]["caption"],
    "clinical_data": CASES[0]["clinical_data"],
    "truth_label": "glioblastoma",
    "paraphrase_id": 0,
}

FAIL_KEYWORD = "angiocentric glioma"

DEGRADED_QUERIES = [
    ("Which tumours show rim enhancement with central necrosis?", "glioblastoma"),
    ("Could this be an angiocentric glioma?", FAIL_KEYWORD),
    ("How specific is callosal spread for glioblastoma?", "glioblastoma"),
    ("Do subependymal nodules calcify in tuberous sclerosis?", "tuberous sclerosis"),
    ("What survival is expected for glioblastoma?", "glioblastoma"),
]


def _answer_text(question: str, ordinal: int) -> str:
    return (
        f"Based on the retrieved excerpts, regarding '{question.rstrip('?')}': "
        f"the references describe the finding directly (synthesis {ordinal})."
    )


class PlannedReply:
    """A chat provider that gives one planned reply and keeps the request's
    fingerprint, so one agent call yields one fingerprint-keyed entry."""

    provider_id = "fixture-builder"

    def __init__(self, content: str):
        self.content = content
        self.fingerprint: str | None = None

    def complete(self, request):
        self.fingerprint = request_fingerprint(request)
        return ChatResponse(content=self.content, provider_id=self.provider_id)


def build_script(
    case_specs: list[tuple[str, list[tuple[str, str]]]],
    fail_keywords: tuple[str, ...] = (),
) -> list[dict]:
    """Fingerprint-keyed script for the pipeline, one entry per model call, in
    each case's pipeline order. Every prompt is rendered by the agent call the
    run makes, and citations are learned by simulating retrieval exactly as
    the run performs it."""
    source = FixtureSource(DATA_DIR / "corpus", fail_keywords=fail_keywords)
    embedder = HashingEmbedder(dim=DIM)
    kb = KnowledgeBase(dim=DIM, chunk_chars=CHUNK_CHARS, overlap_chars=OVERLAP_CHARS)
    cases = {c["id"]: validate_case(c) for c in CASES}
    entries: list[dict] = []

    def ask(agent, role: AgentRole, content: str, *args):
        provider = PlannedReply(content)
        value = agent(provider, config_for_role(role), *args)
        entries.append({"fingerprint": provider.fingerprint, "content": content})
        return value

    counter = 0
    for case_id, queries in case_specs:
        case = cases[case_id]
        candidates = ask(initial_diagnosis, AgentRole.INITIAL_DOCTOR,
                         json.dumps({"candidates": CANDIDATES[case_id]}), case)
        ask(generate_queries, AgentRole.QUERY_GENERATOR,
            json.dumps([{"question": q, "keyword": k} for q, k in queries]), case, len(queries))
        evidence = []
        for question, keyword in queries:
            if keyword in fail_keywords:  # retrieval fails; the run degrades to the sentinel, no call
                evidence.append(no_evidence_answer(question, keyword))
                continue
            kb.lookup_or_fetch(keyword, source, embedder)
            scored = kb.index.search_top_k(embed_text(embedder, question), 5)
            counter += 1
            reply = json.dumps(
                {"answer": _answer_text(question, counter),
                 "supporting_chunk_ids": [s.chunk_id for s in scored[:2]]}
            )
            chunk_texts = {s.chunk_id: kb.chunk_text(s.chunk_id) for s in scored}
            evidence.append(ask(answer_question, AgentRole.ANSWER_GENERATOR, reply,
                                question, scored, chunk_texts, keyword))
        ask(final_diagnosis, AgentRole.FINAL_DOCTOR, json.dumps(FINAL_REPORTS[case_id]),
            case, candidates, evidence)

    fingerprints = [entry["fingerprint"] for entry in entries]
    if len(set(fingerprints)) != len(fingerprints):
        raise SystemExit("two model calls share a request fingerprint; a keyed script cannot tell them apart")
    return entries


def write_json(path: Path, value) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(value, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


def write_jsonl(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")


def main() -> None:
    write_corpus()
    write_jsonl(DATA_DIR / "cases.jsonl", CASES)
    write_jsonl(DATA_DIR / "cases_degraded.jsonl", [DEGRADED_CASE])
    write_jsonl(
        DATA_DIR / "truth.jsonl",
        [{"case_id": c["id"], "truth_label": c["truth_label"]} for c in CASES],
    )
    write_json(DATA_DIR / "synonyms.json", SYNONYMS)

    golden_script = build_script([(c["id"], QUERIES[c["id"]]) for c in CASES])
    write_json(DATA_DIR / "scripts" / "golden_radar.json", golden_script)

    degraded_script = build_script([("c1", DEGRADED_QUERIES)], fail_keywords=(FAIL_KEYWORD,))
    # the degraded case reuses c1's canned candidates/final under its own id
    write_json(DATA_DIR / "scripts" / "degraded_radar.json", degraded_script)

    write_json(
        DATA_DIR / "configs" / "golden_radar.json",
        {
            "topology": "radar",
            "provider": {"kind": "scripted", "script_path": "../scripts/golden_radar.json",
                         "embedder_kind": "hashing", "dim": DIM},
            "kb": {"chunk_chars": CHUNK_CHARS, "overlap_chars": OVERLAP_CHARS,
                   "source": {"kind": "fixture", "corpus_dir": "../corpus"}},
            "agents": {"n_queries": 5},
            "eval": {"normalizer_kind": "dictionary", "synonym_table": "../synonyms.json"},
            "seed": 7,
            "workers": 1,
        },
    )
    write_json(
        DATA_DIR / "configs" / "degraded_radar.json",
        {
            "topology": "radar",
            "provider": {"kind": "scripted", "script_path": "../scripts/degraded_radar.json",
                         "embedder_kind": "hashing", "dim": DIM},
            "kb": {"chunk_chars": CHUNK_CHARS, "overlap_chars": OVERLAP_CHARS,
                   "source": {"kind": "fixture", "corpus_dir": "../corpus",
                              "fail_keywords": [FAIL_KEYWORD]}},
            "agents": {"n_queries": 5},
            "eval": {"normalizer_kind": "dictionary", "synonym_table": "../synonyms.json"},
            "seed": 7,
            "workers": 1,
        },
    )

    # freeze goldens from a real run
    import tempfile

    golden_dir = DATA_DIR / "golden"
    golden_dir.mkdir(exist_ok=True)
    cfg = load_run_config(DATA_DIR / "configs" / "golden_radar.json")
    with tempfile.TemporaryDirectory() as tmp:
        summary = run_cases(cfg, DATA_DIR / "cases.jsonl", tmp)
        assert summary.all_ok, summary.failures
        reports_bytes = (Path(tmp) / "reports.jsonl").read_bytes()
    (golden_dir / "reports.jsonl").write_bytes(reports_bytes)

    reports = [
        (cid, DiagnosisReport.from_dict(raw))
        for cid, raw in [
            (json.loads(line)["case_id"], json.loads(line))
            for line in reports_bytes.decode().splitlines()
        ]
    ]
    truths = load_truths(DATA_DIR / "truth.jsonl")
    normalizer = DictionaryNormalizer(load_synonyms(DATA_DIR / "synonyms.json"))
    result = evaluate_run(reports, truths, normalizer, run_id="golden")
    write_json(golden_dir / "eval.json", result.to_dict())
    print(f"fixtures written under {DATA_DIR}")
    print(f"golden top1={result.top1:.4f} top5={result.top5:.4f}")


if __name__ == "__main__":
    main()
