package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestByteSizeString(t *testing.T) {
	cases := []struct {
		in   ByteSize
		want string
	}{
		{0, "0B"},
		{12, "12B"},
		{KB, "1.00KB"},
		{640 * KB, "640.00KB"},
		{MB, "1.00MB"},
		{1800 * MB, "1.76GB"},
		{GB, "1.00GB"},
		{-2 * KB, "-2.00KB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("ByteSize(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestRateString(t *testing.T) {
	cases := []struct {
		in   Rate
		want string
	}{
		{3 * KBPerSec, "3.00KB/s"},
		{0.5 * KBPerSec, "512.00B/s"},
		{2 * MBPerSec, "2.00MB/s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Rate.String() = %q, want %q", got, c.want)
		}
	}
}

func TestTransferTime(t *testing.T) {
	// 10 KB at 5 KB/s is 2 seconds.
	got := (5 * KBPerSec).TransferTime(10 * KB)
	if math.Abs(float64(got)-2) > 1e-12 {
		t.Errorf("TransferTime = %v, want 2s", got)
	}
}

func TestTransferTimeZeroRate(t *testing.T) {
	got := Rate(0).TransferTime(KB)
	if !math.IsInf(float64(got), 1) {
		t.Errorf("zero rate should give +Inf, got %v", got)
	}
	got = Rate(-1).TransferTime(KB)
	if !math.IsInf(float64(got), 1) {
		t.Errorf("negative rate should give +Inf, got %v", got)
	}
}

func TestTransferTimeZeroBytes(t *testing.T) {
	if got := (3 * KBPerSec).TransferTime(0); got != 0 {
		t.Errorf("zero bytes should take 0s, got %v", got)
	}
}

func TestMaxSeconds(t *testing.T) {
	if got := MaxSeconds(1, 2); got != 2 {
		t.Errorf("MaxSeconds(1,2) = %v", got)
	}
	if got := MaxSeconds(3, 2); got != 3 {
		t.Errorf("MaxSeconds(3,2) = %v", got)
	}
}

func TestMaxSecondsProperties(t *testing.T) {
	// max is commutative and idempotent, and the result is one of the inputs.
	f := func(a, b float64) bool {
		x, y := Seconds(a), Seconds(b)
		m := MaxSeconds(x, y)
		if m != MaxSeconds(y, x) {
			return false
		}
		if m != x && m != y {
			return false
		}
		return m >= x && m >= y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransferTimeMonotone(t *testing.T) {
	// More bytes never transfer faster at the same rate.
	f := func(a, b uint32, r float64) bool {
		rate := Rate(math.Abs(r)) + 1
		small, big := ByteSize(a), ByteSize(a)+ByteSize(b)
		return rate.TransferTime(small) <= rate.TransferTime(big)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReqPerSecString(t *testing.T) {
	if got := ReqPerSec(150).String(); got != "150.0req/s" {
		t.Errorf("ReqPerSec.String() = %q", got)
	}
}
