"""Common model library (cBEAM-side of libvdap, paper SIV-E).

"The common model library contains many common algorithms and models that
are used frequently in vehicle-based applications, such as Natural
Language Processing, Video Processing, Audio Processing and so on.  The
most powerful models that we leverage today are too large for the
OpenVDAP to run, so the models that are in the Common model library are
compressed based on the powerful models."

Entries pair a full-size reference spec with its edge-compressed variant;
``fits_on`` checks a model against a device's memory so libvdap can refuse
to hand an uncompressed Inception to a Movidius stick.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.processor import ProcessorModel
from ..nn.zoo import SPEC_REGISTRY, ModelSpec

__all__ = ["CompressedVariant", "ModelEntry", "CommonModelLibrary"]

#: Default Deep-Compression outcome used for catalog entries: ~10x smaller,
#: modest accuracy cost, FLOPs shrink with the pruned connections.
DEFAULT_SIZE_RATIO = 10.0
DEFAULT_FLOP_RATIO = 3.0
DEFAULT_ACCURACY_DROP = 0.02


@dataclass(frozen=True)
class CompressedVariant:
    """The edge-deployable version of a reference model."""

    base: ModelSpec
    size_ratio: float = DEFAULT_SIZE_RATIO
    flop_ratio: float = DEFAULT_FLOP_RATIO
    accuracy_drop: float = DEFAULT_ACCURACY_DROP

    @property
    def size_bytes(self) -> float:
        return self.base.size_bytes / self.size_ratio

    @property
    def forward_gflop(self) -> float:
        return self.base.forward_gflop / self.flop_ratio

    def inference_time_s(self, processor: ProcessorModel) -> float:
        return processor.execution_time(self.forward_gflop, self.base.workload)


@dataclass(frozen=True)
class ModelEntry:
    """One library row: category, full model, compressed variant."""

    name: str
    category: str  # "nlp" | "video" | "audio" | "behavior"
    full: ModelSpec
    compressed: CompressedVariant

    def fits_on(self, processor: ProcessorModel, compressed: bool = True) -> bool:
        size = self.compressed.size_bytes if compressed else self.full.size_bytes
        return size <= processor.memory_gb * 1e9


class CommonModelLibrary:
    """The queryable model registry libvdap exposes."""

    def __init__(self):
        self._entries: dict[str, ModelEntry] = {}
        self._install_defaults()

    def _install_defaults(self) -> None:
        defaults = (
            ("inception_v3", "video"),
            ("mobilenet_v1", "video"),
            ("yolo_v2", "video"),
            ("resnet50", "video"),
            ("tiny_face", "audio"),
        )
        for name, category in defaults:
            spec = SPEC_REGISTRY[name]
            self.register(
                ModelEntry(
                    name=name,
                    category=category,
                    full=spec,
                    compressed=CompressedVariant(base=spec),
                )
            )

    def register(self, entry: ModelEntry) -> None:
        if entry.name in self._entries:
            raise ValueError(f"model {entry.name!r} already in library")
        self._entries[entry.name] = entry

    def get(self, name: str) -> ModelEntry:
        if name not in self._entries:
            raise KeyError(f"no model named {name!r}")
        return self._entries[name]

    def list(self, category: str | None = None) -> list[ModelEntry]:
        entries = sorted(self._entries.values(), key=lambda e: e.name)
        if category is not None:
            entries = [e for e in entries if e.category == category]
        return entries

