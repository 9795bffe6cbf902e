"""Function-approximation embeddings for local descriptors.

Code descriptors against learned anchors, embed them with second-order
residual blocks, aggregate democratically into image signatures, optionally
binarize with ITQ, and evaluate retrieval quality — as a library or through
the ``faemb`` command-line tool.
"""

from .aggregate import (
    DemocraticResult,
    ImageSignature,
    RotationNormModel,
    WhiteningModel,
    aggregate_image,
    apply_rn,
    democratic_weights,
    fit_rotation_norm,
    fit_whitening,
    l2_normalize,
    power_law,
    sum_weights,
    whiten,
    whiten_batch,
)
from .binary import (
    BinaryCode,
    ItqFit,
    ItqModel,
    encode_itq,
    fit_itq,
    hamming_distance,
    hamming_rank,
    unpack_bits,
)
from .coding import (
    STATIONARITY_TOL,
    BatchNewtonSolution,
    CodingModel,
    NewtonSolution,
    SingularSystemError,
    SolverParams,
    TrainResult,
    anchor_gradient,
    faemb_gamma,
    faemb_gamma_batch,
    ffaemb_gamma,
    ffaemb_gamma_batch,
    gamma_gradient,
    kmeans_init,
    objective,
    per_sample_objective,
    train_coding,
    update_anchors,
)
from .config import (
    ConfigError,
    PipelineConfig,
    dump_defaults,
    load_config,
    parse_config,
)
from .core import (
    DescriptorSet,
    l1_dist_cubed,
    l1_dist_cubed_batch,
    stack_descriptors,
    tri_length,
)
from .embed import (
    BoundInputs,
    EmbeddingConfig,
    bound_faemb,
    bound_ffaemb,
    embed_faemb,
    embed_faemb_batch,
    embed_vlad,
    embed_vlat,
    embedding_length,
    taylor_approx_error,
)
from .pipeline import (
    AggregationParams,
    BenchResult,
    benchmark_embedding,
    compute_signature,
    default_drop,
    embed_descriptor_set,
    parallel_map,
    signature_from_embedded,
)
from .retrieval import (
    GroundTruth,
    MapReport,
    RetrievalIndex,
    average_precision,
    build_binary_index,
    build_index,
    evaluate_map,
    search,
    synth_corpus,
)
from .storage import (
    StorageError,
    load_codes,
    load_descriptors,
    load_ground_truth,
    load_index,
    load_model,
    load_signatures,
    read_container,
    save_codes,
    save_descriptors,
    save_ground_truth,
    save_index,
    save_model,
    save_signatures,
    write_container,
)

__version__ = "0.1.0"
