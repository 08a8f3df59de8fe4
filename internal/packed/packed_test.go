package packed

import (
	"strings"
	"testing"
)

// pack writes a table of len(sets) sets of ways ways; sets[s] maps each
// valid way of set s to its fields.
func pack(ways int, sets ...map[int][]int64) []byte {
	w := NewWriter()
	for _, set := range sets {
		w.Set(ways)
		for way := 0; way < ways; way++ {
			if f, ok := set[way]; ok {
				w.Valid(way)
				for _, v := range f {
					w.Int(v)
				}
			}
		}
	}
	return w.Bytes()
}

func TestRoundTrip(t *testing.T) {
	// 10 ways: two bitmap bytes per set; values of every varint length.
	sets := []map[int][]int64{
		{0: {0, -1}, 9: {1 << 62, -(1 << 62)}},
		{},
		{3: {63, -64}, 8: {64, -65}},
	}
	b := pack(10, sets...)
	if err := Check(b, len(sets), 10, 2); err != nil {
		t.Fatal(err)
	}
	r := NewReader(b)
	for s, set := range sets {
		mask := r.Set(10)
		for way := 0; way < 10; way++ {
			want, ok := set[way]
			if Valid(mask, way) != ok {
				t.Fatalf("set %d way %d: valid %v, want %v", s, way, !ok, ok)
			}
			for i := 0; ok && i < len(want); i++ {
				if v := r.Int(); v != want[i] {
					t.Fatalf("set %d way %d field %d: %d, want %d", s, way, i, v, want[i])
				}
			}
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRejects(t *testing.T) {
	good := pack(10, map[int][]int64{2: {5}}, map[int][]int64{9: {-300}})
	cases := []struct {
		name             string
		b                []byte
		sets, ways, flds int
		want             string
	}{
		{"way beyond the set", append([]byte{0, 0x04}, good[2:]...), 2, 10, 1, "beyond"},
		{"cut varint", good[:len(good)-1], 2, 10, 1, "varint"},
		{"eleven-byte varint", []byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0}, 1, 1, 1, "varint"},
		{"trailing byte", append(append([]byte(nil), good...), 0), 2, 10, 1, "trailing"},
		{"cut bitmap", good, 3, 10, 1, "truncated"},
		{"geometry beyond the bytes", good, 1 << 40, 10, 1, "cannot hold"},
		{"bytes for an empty table", []byte{0}, 0, 4, 1, "trailing"},
		{"negative geometry", nil, -1, 4, 1, "negative"},
	}
	for _, c := range cases {
		err := Check(c.b, c.sets, c.ways, c.flds)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
	if err := Check(good, 2, 10, 1); err != nil {
		t.Errorf("good table: %v", err)
	}
	if err := Check(nil, 0, 0, 3); err != nil {
		t.Errorf("empty table: %v", err)
	}
}
