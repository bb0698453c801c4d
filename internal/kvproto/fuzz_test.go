package kvproto

import (
	"bytes"
	"testing"
)

// FuzzKVProtoParse decodes arbitrary request lines. Parse must never
// panic; whatever it accepts must be a known operation that re-encodes
// (KeyPath, RangePath) to a path parsing back to the same request.
func FuzzKVProtoParse(f *testing.F) {
	f.Add("PUT", "/k/alpha")
	f.Add("GET", "/k/a%2Fb%20c")
	f.Add("DELETE", "/k/%zz")
	f.Add("GET", "/range?start=a&end=m&limit=10")
	f.Add("GET", "/range?limit=-1")
	f.Add("POST", "/range")
	f.Fuzz(func(t *testing.T, method, path string) {
		req, err := Parse(method, path)
		if err != nil {
			return
		}
		var again Request
		switch req.Op {
		case OpPut, OpGet, OpDelete:
			if len(req.Key) == 0 {
				t.Fatalf("%s %q: empty key accepted", method, path)
			}
			again, err = Parse(method, KeyPath(req.Key))
		case OpRange:
			if req.Limit < 0 {
				t.Fatalf("%s %q: negative limit %d", method, path, req.Limit)
			}
			again, err = Parse(method, RangePath(req.Start, req.End, req.Limit))
		default:
			t.Fatalf("%s %q: accepted as op %d", method, path, req.Op)
		}
		if err != nil {
			t.Fatalf("%s %q: re-encoded request rejected: %v", method, path, err)
		}
		if again.Op != req.Op || !bytes.Equal(again.Key, req.Key) || !bytes.Equal(again.Start, req.Start) ||
			!bytes.Equal(again.End, req.End) || again.Limit != req.Limit {
			t.Fatalf("%s %q: %+v re-encodes to %+v", method, path, req, again)
		}
	})
}
