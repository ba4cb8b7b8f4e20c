package leapfrog

import (
	"context"
	"errors"
	"testing"
)

func TestCancelerNilForBackground(t *testing.T) {
	if c := NewCanceler(context.Background()); c != nil {
		t.Fatalf("Background canceler = %v, want nil", c)
	}
	var nilCtx context.Context // nil ctx is part of the contract
	if c := NewCanceler(nilCtx); c != nil {
		t.Fatalf("nil-ctx canceler = %v, want nil", c)
	}
	var nilC *Canceler
	if nilC.Poll() || nilC.Err() != nil {
		t.Fatal("nil canceler must never trip")
	}
}

func TestCancelerLatches(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := NewCanceler(ctx)
	if c == nil {
		t.Fatal("cancellable ctx produced nil canceler")
	}
	for i := 0; i < 10*CancelCheckEvery; i++ {
		if c.Poll() {
			t.Fatalf("tripped at poll %d without cancellation", i)
		}
	}
	cancel()
	tripped := false
	for i := 0; i < CancelCheckEvery+1; i++ {
		if c.Poll() {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatal("canceler did not trip within one polling period")
	}
	if !errors.Is(c.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", c.Err())
	}
	// Latched: every later poll trips immediately.
	if !c.Poll() {
		t.Fatal("latched canceler un-tripped")
	}
}

func TestCancelerPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewCanceler(ctx)
	if c == nil || !c.Poll() || c.Err() == nil {
		t.Fatalf("pre-cancelled ctx: canceler %v did not trip at once", c)
	}
}
