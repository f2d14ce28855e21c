package sim

import "testing"

func TestStationInfiniteParallel(t *testing.T) {
	k := NewKernel()
	st := NewStation(k)
	var finishes []Time
	for i := 0; i < 5; i++ {
		k.Spawn("j", func(p *Proc) {
			if err := st.Serve(p, 100); err != nil {
				t.Errorf("Serve: %v", err)
				return
			}
			finishes = append(finishes, p.Now())
		})
	}
	k.Run()
	// All five overlap fully: everyone finishes at 100.
	for _, f := range finishes {
		if f != 100 {
			t.Fatalf("finishes = %v, want all 100 (parallel)", finishes)
		}
	}
	if st.Busy() != 500 {
		t.Fatalf("busy=%d, want 500", st.Busy())
	}
}
