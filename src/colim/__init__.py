"""Exact-arithmetic toolkit for isomorphism certificates between directed
colimits of free abelian and simplicial group sequences."""

from .colimit import ColimitElement, Trilean
from .confluence import (
    CertificatePeriod,
    ConfluenceCertificate,
    SearchBudget,
    search_confluence,
    verify_certificate,
)
from .diagrams import SequenceDiagram, transition, validate
from .invariants import SupernaturalNumber, colimit_rank, noniso_evidence, steinitz
from .matrices import Matrix, kernel_basis, snf, solve_matrix_eq

__all__ = [
    "CertificatePeriod",
    "ColimitElement",
    "ConfluenceCertificate",
    "Matrix",
    "SearchBudget",
    "SequenceDiagram",
    "SupernaturalNumber",
    "Trilean",
    "colimit_rank",
    "kernel_basis",
    "noniso_evidence",
    "search_confluence",
    "snf",
    "solve_matrix_eq",
    "steinitz",
    "transition",
    "validate",
    "verify_certificate",
]

__version__ = "0.1.0"
