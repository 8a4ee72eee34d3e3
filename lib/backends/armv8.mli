(** An ARMv8-flavoured weak machine over [Lang] programs: per-location
    write histories, per-location-FIFO store buffers (store-store
    reordering), and per-thread read floors that let relaxed loads read
    stale messages of independent locations (load-load/load-store
    reordering) — restricted by acquire/release barriers: release stores
    write through carrying the writer's view, acquire loads join the
    view of the message they read, fences act as full barriers.

    Strictly weaker than {!Tso} (every TSO execution keeps drains FIFO
    and reads newest — the E15 chain's upper link); the separation
    witness is MP-rlx, whose stale-read outcome TSO forbids and this
    machine allows.  Executes in program order (no load speculation), so
    LB-style outcomes are not exhibited; not multi-copy-atomic, so
    IRIW-style outcomes are — both documented in docs/BACKENDS.md. *)

include Backend.MACHINE
