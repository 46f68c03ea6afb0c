// Bounded-unrolled ticket-lock handoff over one incrementing grant word
// (`now_serving`). T0 publishes a write-once payload behind a seeded
// over-strong `dsb ishst`, then per round runs two scratch stores and bumps
// the grant; T1 polls the grant once per round, then `dmb ishld` and reads
// the payload. The round loops are *counted* (`sub`/`cbnz` on a constant),
// so the lifter unrolls them exactly by constant propagation -- no unroll
// pragma involved.
//
// armbar: thread owner
// armbar: thread taker
// armbar: shared data0 @ 1
// armbar: shared data1 @ 2
// armbar: shared grant @ 62
// armbar: private work_a @ 60 for T0

owner:
    ldr x0, =data0
    mov x1, #20
    str x1, [x0]
    ldr x0, =data1
    mov x1, #21
    str x1, [x0]
    dsb ishst                    // seeded over-strong publish fence
    ldr x13, =work_a
    ldr x14, =grant
    mov x9, #3                   // rounds
    mov x10, #0                  // scratch value: round * 16 + k
    mov x11, #0                  // grant value: round + 1
Lround:
    str x10, [x13]
    add x12, x10, #1
    str x12, [x13]
    add x11, x11, #1
    str x11, [x14]
    add x10, x10, #16
    sub x9, x9, #1
    cbnz x9, Lround
    ret

taker:
    ldr x14, =grant
    mov x9, #3                   // one poll per round
Lpoll:
    ldr x1, [x14]
    sub x9, x9, #1
    cbnz x9, Lpoll
    dmb ishld
    ldr x0, =data0
    ldr x2, [x0]
    ldr x0, =data1
    ldr x3, [x0]
    ret
