"""Table III — properties of the target datasets.

Prints the paper's sample/class counts next to our scaled-down versions
(~20x smaller, classes clamped to 12; see docs/fidelity.md).
"""

from benchmarks.conftest import print_header


def _rows(zoo):
    out = []
    for name in zoo.target_names():
        spec = zoo.dataset(name).spec
        out.append((name, spec.paper_samples, spec.num_samples,
                    spec.paper_classes, spec.num_classes))
    return out


def test_table3_dataset_properties(benchmark, image_zoo, text_zoo):
    rows = benchmark.pedantic(
        lambda: {"image": _rows(image_zoo), "text": _rows(text_zoo)},
        rounds=1, iterations=1)
    print_header("Table III — target dataset properties (paper -> scaled)")
    for modality in ("image", "text"):
        print(f"  [{modality}]")
        print(f"  {'dataset':<24}{'samples':>16}{'classes':>14}")
        for name, ps, ss, pc, sc in rows[modality]:
            print(f"  {name:<24}{ps:>8} -> {ss:<5}{pc:>7} -> {sc:<4}")
    for modality in ("image", "text"):
        assert len(rows[modality]) == 8  # eight targets per modality
