package isa

import "testing"

// sliceStreamOf wraps a slice of instructions as a Stream.
func sliceStreamOf(insts []Inst) *SliceStream { return NewSliceStream(insts) }

func TestLineWidthIndex(t *testing.T) {
	cases := map[int]int{
		16: 0, 32: 1, 64: 2, 128: 3, 256: 4, 512: 5, 1024: 6,
		8: -1, 2048: -1, 48: -1, 0: -1, -16: -1,
	}
	for w, want := range cases {
		if got := LineWidthIndex(w); got != want {
			t.Errorf("LineWidthIndex(%d) = %d, want %d", w, got, want)
		}
	}
	if MinLineWidth<<(NumLineWidths-1) != 1024 {
		t.Fatalf("width table does not end at 1024")
	}
}

func TestStreamStatsCounts(t *testing.T) {
	// Hand-built trace: an ALU op, an SVE FMA, two loads (one straddling a
	// 16-byte boundary), a store, a taken and a not-taken branch.
	insts := []Inst{
		{Op: IntALU},
		{Op: SVEFMA, SVE: true},
		{Op: Load, Mem: MemRef{Addr: 0x1000, Bytes: 8}},
		{Op: Load, Mem: MemRef{Addr: 0x100c, Bytes: 8}}, // spans chunks 0x100 and 0x101
		{Op: Store, Mem: MemRef{Addr: 0x2000, Bytes: 32}},
		{Op: Branch, Branch: BranchInfo{Taken: true, Target: 0x1000}},
		{Op: Branch},
	}
	st := CollectStreamStats(sliceStreamOf(insts))

	if st.Insts != 7 {
		t.Fatalf("Insts = %d, want 7", st.Insts)
	}
	if st.SVE != 1 {
		t.Errorf("SVE = %d, want 1", st.SVE)
	}
	if st.Groups[Load] != 2 || st.Groups[Store] != 1 || st.Groups[Branch] != 2 {
		t.Errorf("group counts load/store/branch = %d/%d/%d, want 2/1/2",
			st.Groups[Load], st.Groups[Store], st.Groups[Branch])
	}
	if st.LoadBytes != 16 || st.StoreBytes != 32 {
		t.Errorf("bytes load/store = %d/%d, want 16/32", st.LoadBytes, st.StoreBytes)
	}
	if st.TakenBranches != 1 {
		t.Errorf("TakenBranches = %d, want 1", st.TakenBranches)
	}

	// Line requests at 16 B: load@0x1000(8B)=1, load@0x100c(8B) spans 2,
	// store@0x2000(32B)=2 → total 5, loads 3, stores 2.
	k16 := LineWidthIndex(16)
	if st.LineRequests[k16] != 5 || st.LoadLineRequests[k16] != 3 || st.StoreLineRequests[k16] != 2 {
		t.Errorf("16B line requests total/load/store = %d/%d/%d, want 5/3/2",
			st.LineRequests[k16], st.LoadLineRequests[k16], st.StoreLineRequests[k16])
	}
	// At 64 B each access fits one line: total 3.
	k64 := LineWidthIndex(64)
	if st.LineRequests[k64] != 3 {
		t.Errorf("64B line requests = %d, want 3", st.LineRequests[k64])
	}

	// Unique lines: touched byte ranges are [0x1000,0x1008), [0x100c,0x1014),
	// [0x2000,0x2020). At 16 B: lines 0x100, 0x101, 0x200, 0x201 → 4.
	if st.UniqueLines[k16] != 4 {
		t.Errorf("16B unique lines = %d, want 4", st.UniqueLines[k16])
	}
	// At 64 B: lines 0x40 and 0x80 → 2. At 1024 B: lines 4 and 8 → 2.
	if st.UniqueLines[k64] != 2 {
		t.Errorf("64B unique lines = %d, want 2", st.UniqueLines[k64])
	}
	k1024 := LineWidthIndex(1024)
	if st.UniqueLines[k1024] != 2 {
		t.Errorf("1024B unique lines = %d, want 2", st.UniqueLines[k1024])
	}

	if got := st.FootprintBytes(64); got != 128 {
		t.Errorf("FootprintBytes(64) = %d, want 128", got)
	}
	if got := st.FootprintBytes(48); got != 0 {
		t.Errorf("FootprintBytes(48) = %d, want 0 for invalid width", got)
	}
}

// TestStreamStatsBuilderMatchesCollect pins that folding stats in one
// instruction at a time matches the whole-stream collector.
func TestStreamStatsBuilderMatchesCollect(t *testing.T) {
	insts := []Inst{
		{Op: Load, Mem: MemRef{Addr: 0x3000, Bytes: 256}},
		{Op: SVEAdd, SVE: true},
		{Op: Store, Mem: MemRef{Addr: 0x3100, Bytes: 64}},
		{Op: Branch, Branch: BranchInfo{Taken: true}},
	}
	want := CollectStreamStats(sliceStreamOf(insts))
	b := NewStreamStatsBuilder()
	for i := range insts {
		b.Add(&insts[i])
	}
	if got := b.Stats(); got != want {
		t.Fatalf("builder stats diverge from collector:\n got %+v\nwant %+v", got, want)
	}
}
