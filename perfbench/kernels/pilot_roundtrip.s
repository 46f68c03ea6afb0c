// Bounded-unrolled Pilot channel round-trip. The idiom rides entirely on
// single-copy atomicity and same-location coherence; the one `dmb ishst`
// in T0's claim phase is seeded *redundant* -- finding it is the corpus
// case's purpose. T1 answers through the paper's bogus-data-dependency
// idiom (`eor`/`add` on the last request read), then overwrites the
// response. All loops are counted and unroll by constant propagation.
//
// armbar: thread requester
// armbar: thread responder
// armbar: shared req @ 70
// armbar: shared resp @ 71

requester:
    ldr x0, =req
    ldr x1, =resp
    mov x2, #1                   // phase 1: claim
    mov x9, #10
L1a:
    str x2, [x0]
    sub x9, x9, #1
    cbnz x9, L1a
    dmb ishst                    // seeded redundant fence (same-word chain)
    mov x9, #9
L1b:
    str x2, [x0]
    sub x9, x9, #1
    cbnz x9, L1b
    mov x2, #2                   // phase 2: partial
    mov x9, #19
L2:
    str x2, [x0]
    sub x9, x9, #1
    cbnz x9, L2
    mov x2, #3                   // phase 3: commit
    mov x9, #19
L3:
    str x2, [x0]
    sub x9, x9, #1
    cbnz x9, L3
    mov x9, #5                   // poll the response
Lr:
    ldr x3, [x1]
    sub x9, x9, #1
    cbnz x9, Lr
    ret

responder:
    ldr x0, =req
    ldr x1, =resp
    mov x9, #5                   // poll the request
Lq:
    ldr x2, [x0]
    sub x9, x9, #1
    cbnz x9, Lq
    eor x3, x2, x2               // bogus data dependency on the last read
    add x3, x3, #1
    str x3, [x1]
    mov x4, #2
    str x4, [x1]
    ret
