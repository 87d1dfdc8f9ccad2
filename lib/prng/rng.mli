(** Deterministic pseudo-random number generation.

    Own implementation (no dependency on [Stdlib.Random]) so that simulation
    and random-model experiments are reproducible bit-for-bit across OCaml
    versions: a SplitMix64 seeder feeding a Xoshiro256++ core, the standard
    pairing recommended by the xoshiro authors. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** Generator seeded deterministically from [seed] via SplitMix64. *)

val split : t -> t
(** A new generator whose stream is independent of the parent's future
    output (seeded from the parent's next outputs through SplitMix64).
    Used to give each simulation replica its own stream. *)

val copy : t -> t
(** Snapshot of the current state. *)

val derive : seed:int -> int -> int
(** [derive ~seed index] is a deterministic child seed for task [index]
    of an experiment seeded with [seed] (SplitMix64 over the pair).
    Unlike {!split} it consumes no generator state, so a fleet can hand
    task [i] the same seed regardless of worker assignment or completion
    order. Non-negative and at most 52 bits, so the seed survives a
    JSON round-trip (ledger records, fleet rows) exactly. *)

val uint64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform float in [\[0, 1)], 53-bit resolution. *)

val float_pos : t -> float
(** Uniform float in [(0, 1)]; never returns [0.] (safe for [log]). *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0].
    Unbiased (rejection sampling). *)

val bool : t -> bool
