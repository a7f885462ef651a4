package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/ocb"
)

// checkSum verifies that c holds the elementwise int32 sum of a and b, as
// mat_add_i32 must compute it (wrapping on overflow).
func checkSum(a, b, c []byte) error {
	if len(a) != len(b) || len(a) != len(c) {
		return fmt.Errorf("result check: lengths %d, %d, %d differ", len(a), len(b), len(c))
	}
	le := binary.LittleEndian
	for i := 0; i+4 <= len(c); i += 4 {
		want := le.Uint32(a[i:]) + le.Uint32(b[i:])
		if got := le.Uint32(c[i:]); got != want {
			return fmt.Errorf("result check: element %d = %d, want %d", i/4, int32(got), int32(want))
		}
	}
	return nil
}

// checkDial verifies one dial's handshake against what was asked for: a
// ticketed dial must resume and run no DH operation; a full dial must
// not resume and must run at least one.
func checkDial(ticketed, resumed bool, dhOps int64) error {
	switch {
	case ticketed && !resumed:
		return fmt.Errorf("dial check: ticketed dial fell back to a full handshake")
	case ticketed && dhOps != 0:
		return fmt.Errorf("dial check: resumed dial ran %d DH operations, want 0", dhOps)
	case !ticketed && resumed:
		return fmt.Errorf("dial check: full dial reported a resumed session")
	case !ticketed && dhOps <= 0:
		return fmt.Errorf("dial check: full dial ran %d DH operations, want > 0", dhOps)
	}
	return nil
}

// checkAccepted verifies that the server accepted exactly as many
// tickets as the clients saw resumed dials.
func checkAccepted(serverAccepted, clientResumed int64) error {
	if serverAccepted != clientResumed {
		return fmt.Errorf("resume check: server accepted %d tickets, clients saw %d resumed dials",
			serverAccepted, clientResumed)
	}
	return nil
}

// checkSealed verifies that a chunk read from the inter-enclave shared
// segment does not expose plain, the plaintext it carries: no 16-byte
// block of the sealed body equals the plaintext block at the same
// offset, and the plaintext's first block appears nowhere in the chunk.
func checkSealed(plain, sealed []byte) error {
	if len(sealed) != len(plain)+ocb.TagSize {
		return fmt.Errorf("seal check: chunk is %d bytes, want %d", len(sealed), len(plain)+ocb.TagSize)
	}
	const blk = 16
	for off := 0; off+blk <= len(plain); off += blk {
		if bytes.Equal(sealed[off:off+blk], plain[off:off+blk]) {
			return fmt.Errorf("seal check: plaintext block at offset %d is in the shared segment", off)
		}
	}
	if len(plain) >= blk && bytes.Contains(sealed, plain[:blk]) {
		return fmt.Errorf("seal check: plaintext's first block is in the shared segment")
	}
	return nil
}
