"""Plain helper functions shared by several test modules."""


def save_vectors(dataset, path) -> None:
    """Write a vector dataset in the format gnatty.load_vectors reads."""
    dim = dataset.dim or 0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{dim} {len(dataset)}\n")
        for obj in dataset:
            handle.write(" ".join(repr(c) for c in obj) + "\n")
