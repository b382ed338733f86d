package provider

import (
	"context"
	"testing"
	"time"
)

func TestMockClockSleepBlocksUntilAdvance(t *testing.T) {
	c := NewMockClock()
	done := make(chan error, 1)
	go func() { done <- c.Sleep(context.Background(), 100*time.Millisecond) }()
	c.BlockUntil(1)
	select {
	case <-done:
		t.Fatal("Sleep returned before Advance")
	default:
	}
	c.Advance(100 * time.Millisecond)
	if err := <-done; err != nil {
		t.Errorf("Sleep = %v", err)
	}
}

func TestMockClockAdvanceWakesOnlyDueSleepers(t *testing.T) {
	c := NewMockClock()
	short, long := make(chan error, 1), make(chan error, 1)
	go func() { short <- c.Sleep(context.Background(), 10*time.Millisecond) }()
	go func() { long <- c.Sleep(context.Background(), 30*time.Millisecond) }()
	c.BlockUntil(2)
	c.Advance(20 * time.Millisecond)
	if err := <-short; err != nil {
		t.Errorf("short Sleep = %v", err)
	}
	if c.Pending() != 1 {
		t.Errorf("pending = %d after partial advance, want 1", c.Pending())
	}
	select {
	case <-long:
		t.Fatal("sleeper woke before its deadline")
	default:
	}
	c.Advance(10 * time.Millisecond)
	if err := <-long; err != nil {
		t.Errorf("long Sleep = %v", err)
	}
	if c.Pending() != 0 {
		t.Errorf("pending = %d after full advance", c.Pending())
	}
}

func TestMockClockSleepHonoursCancellation(t *testing.T) {
	c := NewMockClock()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Sleep(ctx, time.Hour) }()
	c.BlockUntil(1)
	cancel()
	if err := <-done; err != context.Canceled {
		t.Errorf("Sleep = %v, want context.Canceled", err)
	}
	if c.Pending() != 0 {
		t.Errorf("cancelled sleeper left %d pending timers", c.Pending())
	}
}

func TestAutoClockSleepAdvancesItself(t *testing.T) {
	c := NewAutoClock()
	start := c.Now()
	if err := c.Sleep(context.Background(), 250*time.Millisecond); err != nil {
		t.Fatalf("Sleep = %v", err)
	}
	if want := start.Add(250 * time.Millisecond); !c.Now().Equal(want) {
		t.Errorf("now = %v, want %v", c.Now(), want)
	}
}

func TestMockClockPreCancelledSleep(t *testing.T) {
	c := NewMockClock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Sleep(ctx, time.Second); err != context.Canceled {
		t.Errorf("Sleep = %v, want context.Canceled", err)
	}
}

func TestRealClockSleepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := RealClock().Sleep(ctx, time.Hour); err != context.Canceled {
		t.Errorf("Sleep = %v, want context.Canceled", err)
	}
	if err := RealClock().Sleep(context.Background(), 0); err != nil {
		t.Errorf("zero Sleep = %v", err)
	}
}
