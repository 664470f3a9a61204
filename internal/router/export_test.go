package router

import "bufio"

// ReadResponse runs HTTPTransport's reply reader over rd.
func ReadResponse(rd *bufio.Reader) (resp *Response, keep bool, err error) {
	return (&conn{rd: rd}).readResponse()
}

// AppendResults is the classify gather's splice of a shard reply.
var AppendResults = appendResults
