package core

import (
	"testing"

	"dircache/internal/vfs"
)

// TestTokenInvalidWhileMutationsOverlap: two overlapping mutations leave
// the epoch even while both are in flight. A slow walk that captures its
// token then must still be refused caching until both have ended and a
// fresh token is taken; otherwise it can publish a path one of them is
// about to rename away, and that entry outlives the rename.
func TestTokenInvalidWhileMutationsOverlap(t *testing.T) {
	k, c, _ := auditFixture(t)
	d := k.RootDentry()
	endA := c.BeginMutation(d, vfs.InvalPerm)
	endB := c.BeginMutation(d, vfs.InvalPerm)
	tok := c.BeginSlow()
	if tok&1 != 0 {
		t.Fatalf("epoch %d: want the even value two overlapping begins leave", tok)
	}
	if c.tokenValid(tok) {
		t.Fatal("token taken while two mutations are in flight is valid")
	}
	endA()
	if c.tokenValid(tok) || c.tokenValid(c.BeginSlow()) {
		t.Fatal("token valid while one mutation is still in flight")
	}
	endB()
	if c.tokenValid(tok) {
		t.Fatal("token taken mid-mutation is valid after the mutations ended")
	}
	if !c.tokenValid(c.BeginSlow()) {
		t.Fatal("fresh token after the mutations ended is not valid")
	}
}
