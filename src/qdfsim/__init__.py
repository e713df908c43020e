"""qdfsim: robustness of decoherence-free charge-qubit states measured by a
two-barrier detector with an internal island."""
