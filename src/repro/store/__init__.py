"""Metadata catalog for the model zoo (Stage 1 of the paper's pipeline).

The paper frames model selection as a data-management problem and borrows
from data-lake catalogs: every artifact (model, dataset) and every derived
fact (training-history entry, transferability score, dataset similarity) is
a typed record.  ``repro.store`` provides a small embedded record store:

- :class:`~repro.store.schema.Schema` / :class:`~repro.store.schema.Column`
  — typed table definitions with validation;
- :class:`~repro.store.table.Table` — an indexed in-memory table with a
  primary key, equality filters and JSON round-tripping;
- :class:`~repro.store.catalog.ZooCatalog` — the five standard tables plus
  convenience APIs used throughout the framework, persisted as one
  ``catalog.json`` and carrying the mutation log that drives incremental
  graph refresh.
"""

from repro.store.schema import Column, Schema, SchemaError
from repro.store.table import Table
from repro.store.catalog import ZooCatalog

__all__ = [
    "Column",
    "Schema",
    "SchemaError",
    "Table",
    "ZooCatalog",
]
