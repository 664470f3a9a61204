package core_test

import (
	"bytes"

	"locec/internal/artifact"
	"locec/internal/core"
	"locec/internal/social"
)

func init() {
	core.SaveMutable = func(ds *social.Dataset, res *core.Result) ([]byte, error) {
		ex, err := res.Export()
		if err != nil {
			return nil, err
		}
		art, err := artifact.New(ds.G, ex, 7)
		if err != nil {
			return nil, err
		}
		if err := art.EmbedDataset(ds); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = art.Save(&buf)
		return buf.Bytes(), err
	}
}
