(** An x86-TSO operational machine over [Lang] programs: per-thread FIFO
    store buffers, store-to-load forwarding, asynchronous drains, and
    mfence-on-acquire/release draining (acquire loads, release stores,
    RMWs and fences are sequentially consistent points).

    Strictly weaker than SC and strictly stronger than {!Armv8}: every
    SC execution is a TSO execution that drains each store immediately,
    and every TSO execution is an ARMv8 execution whose drains happen to
    stay FIFO and whose loads happen to read the newest message — the
    SC ⊆ TSO ⊆ ARMv8 chain the E15 grid asserts per row.  The classic
    separation witness is SB: the both-read-zero outcome is forbidden
    under SC and allowed here.  Explored by {!Promising.Explore}; see
    docs/BACKENDS.md. *)

include Backend.MACHINE
