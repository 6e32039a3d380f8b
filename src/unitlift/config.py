"""Size guards for the exhaustive computations.

Every scan in this library is finite and exact, so the only thing standing
between a query and a multi-hour run is carrier size.  The limits below are
configuration values: build_ring takes them, and every computation on the
ring reads the ring's own; the defaults keep the bundled verification
corpus comfortably under two minutes.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Guards:
    # largest ring build_ring will construct
    carrier_limit: int = 65536
    # largest carrier for full ideal-lattice enumeration
    ideal_enum_limit: int = 4096
    # largest |R|**(n*n) for full matrix-space scans
    matrix_space_limit: int = 65536
    # largest matrix dimension for determinants and lifts
    matrix_dim_limit: int = 3
    # largest carrier for cached numpy operation tables (int32), which only
    # polynomial quotients and products build, from their structure; Z/n
    # and quotients R/I compute on their encoding at every size
    table_limit: int = 1024


DEFAULT_GUARDS = Guards()
