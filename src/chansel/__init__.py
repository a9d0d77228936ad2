"""chansel: channel-subset selection toolkit for multichannel sequence data.

Core pieces: channel dropout masks and subset restriction (signals), a
phoneme category taxonomy (phonemes), edit distance and per-category error
rates (metrics), a small trainable reference classifier whose input layer
slices along channels and whose training applies channel dropout (model), a
synthetic corpus generator with planted channel informativeness (synth), and
cached subset-search procedures (search). The ``chansel`` CLI orchestrates
the experiment workflows.
"""

from ._version import __version__
from .corpus import Corpus, LabeledSequence, load_corpus, save_corpus
from .metrics import (
    CategoryReport,
    category_per,
    collapse_frame_labels,
    worst_channel_table,
)
from .model import (
    EvalRecord,
    ModelParams,
    TrainConfig,
    evaluate,
    forward,
    init_params,
    slice_input_channels,
    train,
)
from .phonemes import CategoryTable, Phoneme, default_table
from .search import (
    EliminationTrace,
    ResultsCache,
    SweepResult,
    TrainingEvaluator,
    backward_elimination,
    channel_average_metric,
    exhaustive_sweep,
    seven_channel_ablation,
    top_k_frequency,
)
from .signals import (
    ChannelMask,
    ChannelSubset,
    MultichannelSignal,
    parse_subset,
    restrict_to_subset,
)
from .synth import GeneratorConfig, generate

# the public API is every name imported above from the submodules
__all__ = ["__version__", *(name for name, value in globals().items()
                            if getattr(value, "__module__", "").startswith(__name__ + "."))]
