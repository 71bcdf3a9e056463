"""Workloads: synthetic prompt datasets, training corpus, arrival processes.

The paper evaluates on prompts from five datasets (Alpaca, ChatGPT Prompts,
WebQA, Chatbot Instruction Prompts, PIQA) and boost-tunes on OpenWebText.
Offline stand-ins live here; see DESIGN.md's substitution table.
"""

from repro.workloads.datasets import (
    DATASET_NAMES,
    DatasetSpec,
    PromptDataset,
    dataset_specs,
    make_dataset,
)
from repro.workloads.arrival import (
    Arrival,
    PoissonArrivals,
    drive_manager,
    sort_arrivals,
)
from repro.workloads.corpus import MarkovCorpus

__all__ = [
    "DATASET_NAMES",
    "DatasetSpec",
    "PromptDataset",
    "dataset_specs",
    "make_dataset",
    "MarkovCorpus",
    "Arrival",
    "PoissonArrivals",
    "drive_manager",
    "sort_arrivals",
]
